"""``repro-bisect`` — bisect every witness of a campaign over the
version axis.

Takes a stored ``repro-campaign/1`` artifact (as written by
``repro-campaign --output``) — or runs the find step itself with
``--pool-size`` — and binary-searches the family's release axis for
each fired defect's first-bad / last-good / fixed-in version, writing
the outcomes as a ``repro-bisect/1`` artifact::

    repro-campaign --family gcc --pool-size 40 --output campaign.json
    repro-reduce campaign.json --output reduce.json
    repro-bisect campaign.json --output bisect.json
    repro-report bisect bisect.json --format md

The one-command chain ``repro-bisect --family gcc --pool-size 40``
runs the campaign (find) and the bisection in a single invocation.
``--defect ID`` additionally segment-scans an explicitly requested
defect for every witness; ``--no-discover`` restricts bisection to the
campaign's fired defects.  Serial and sharded runs are bit-identical;
``--store`` resumes finished witnesses with zero recompiles.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from ..debugger import NATIVE_DEBUGGERS
from ..pipeline.cli import (
    _fault_options, _finish, _run_campaign, _run_driver, _write_json,
    add_common_driver_args, add_toolchain_args, resolve_workers,
)
from .campaign import run_bisect_campaign
from .parallel import run_bisect_campaign_parallel


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bisect",
        description="Bisect every witness of a campaign over the "
                    "compiler version axis (repro-bisect/1).")
    parser.add_argument("artifact", nargs="?",
                        help="repro-campaign/1 artifact JSON path "
                             "(omit to run the campaign here with "
                             "--pool-size)")
    add_toolchain_args(
        parser, family_help="compiler family (find mode)",
        version_help="anchor compiler version (find mode; default: "
                     "trunk)",
        pool_size=None,
        pool_help="find mode: generate and test this many programs "
                  "first, then bisect",
        seed_help="first seed of the find-mode range",
        levels_help="find-mode optimization levels (default: every "
                    "optimized level of the family)")
    parser.add_argument("--limit", type=int, default=None, metavar="N",
                        help="bisect at most N witnesses (forces the "
                             "serial driver)")
    parser.add_argument("--defect", action="append", default=[],
                        metavar="ID",
                        help="also bisect this defect id for every "
                             "witness (segment scan; repeatable)")
    parser.add_argument("--no-discover", action="store_true",
                        help="bisect only the campaign's fired defects "
                             "(skip defects seen firing during probes)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the repro-bisect/1 artifact here")
    parser.add_argument("--campaign-output", metavar="PATH",
                        help="find mode: also write the intermediate "
                             "repro-campaign/1 artifact here")
    add_common_driver_args(parser, unit="witness")
    parser.add_argument("--indent", type=int, default=2,
                        help="artifact JSON indentation (default: 2)")
    parser.add_argument("--report", metavar="DIR",
                        help="render the bisection deliverable plus a "
                             "manifest.json into this directory")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary table")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point with graceful-shutdown parity: SIGTERM (like
    Ctrl-C) checkpoints finished work to the ``--store`` file on the
    way out and exits 130."""
    from ..faults import run_interruptible
    return run_interruptible(_main, argv)


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.artifact is None and args.pool_size is None:
        parser.error("give a repro-campaign/1 artifact path, or "
                     "--pool-size to run the campaign here")
    if args.artifact is not None and args.pool_size is not None:
        parser.error("--pool-size runs the campaign here; it cannot "
                     "be combined with an artifact path")
    workers = resolve_workers(parser, args)
    fault_options = _fault_options(parser, args)

    if args.artifact is not None:
        from ..pipeline.campaign import CampaignResult
        from ..report import load_artifact_file
        try:
            campaign = load_artifact_file(args.artifact)
        except (OSError, ValueError) as error:
            parser.error(f"{args.artifact}: {error}")
        if not isinstance(campaign, CampaignResult):
            parser.error(f"{args.artifact}: repro-bisect needs a "
                         f"repro-campaign/1 artifact, got "
                         f"{type(campaign).__name__}")
    else:
        # Find mode: the campaign runs here, sharing the store, fault
        # plan and worker fleet the bisection will use.
        campaign = _run_campaign(
            args, NATIVE_DEBUGGERS[args.family].name, workers,
            args.serial or workers <= 1, fault_options)
        _write_json(args.campaign_output, campaign, args.indent)

    started = time.perf_counter()
    try:
        result = _run_driver(
            args, args.serial or workers <= 1 or args.limit is not None,
            workers, (run_bisect_campaign, run_bisect_campaign_parallel),
            campaign, limit=args.limit, discover=not args.no_discover,
            defects=tuple(args.defect), **fault_options)
    except ValueError as error:
        parser.error(str(error))
    elapsed = time.perf_counter() - started

    _write_json(args.output, result, args.indent)

    if not args.quiet:
        from ..report import bisect_table, render
        stats = result.stats
        print(f"bisect campaign: {result.family}-{result.version}, "
              f"{result.witnesses} witnesses, {len(result.records)} "
              f"defect windows ({len(result.defects_seen())} distinct "
              f"defects)")
        print(f"elapsed: {elapsed:.2f}s ({stats.get('probes', 0)} "
              f"probes for {stats.get('consults', 0)} consults, "
              f"{stats.get('memo_hits', 0)} memo hits)")
        if result.records:
            print()
            print(render(bisect_table(result), "text"))
    return _finish(result, args)


if __name__ == "__main__":
    sys.exit(main())
