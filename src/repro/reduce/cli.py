"""``repro-reduce`` — reduce every violation of a stored campaign.

Takes a ``repro-campaign/1`` artifact (as written by ``repro-campaign
--output``), regenerates each violating program from its seed, triages
the culprit optimization, runs the fast reduction engine on every
distinct ``(conjecture, variable)`` witness, and writes the outcomes as
a ``repro-reduce/1`` artifact::

    repro-campaign --family gcc --pool-size 40 --output campaign.json
    repro-reduce campaign.json --output reduce.json
    repro-report reduce reduce.json --format md

``--engine parallel`` speculates candidate oracles across worker
processes (bit-identical results, see
:mod:`repro.reduce.parallel`); ``--engine reference`` runs the
seed-faithful baseline for differential comparisons.  ``--no-triage``
skips culprit identification, ``--limit N`` bounds the number of
witnesses.  The summary table prints through :mod:`repro.report`, so
console output matches the rendered deliverables.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from ..pipeline.cli import add_common_driver_args
from ..pipeline.reduction import ENGINES, run_reduction_campaign


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-reduce",
        description="Reduce every violation of a stored campaign "
                    "artifact to a minimal witness (repro-reduce/1).")
    parser.add_argument("artifact",
                        help="repro-campaign/1 artifact JSON path")
    parser.add_argument("--engine", choices=ENGINES, default="fast",
                        help="reduction engine (default: fast)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --engine parallel "
                             "(default: CPU count)")
    parser.add_argument("--max-steps", type=int, default=2000,
                        help="candidate budget per witness "
                             "(default: 2000)")
    parser.add_argument("--limit", type=int, default=None,
                        metavar="N", help="reduce at most N witnesses")
    parser.add_argument("--no-triage", action="store_true",
                        help="skip culprit identification (reductions "
                             "then preserve only the violation)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the repro-reduce/1 artifact here")
    add_common_driver_args(parser, unit="witness", sharded=False)
    parser.add_argument("--indent", type=int, default=2,
                        help="artifact JSON indentation (default: 2)")
    parser.add_argument("--report", metavar="DIR",
                        help="render the reduction deliverable plus a "
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
    from ..pipeline.campaign import CampaignResult
    from ..report import load_artifact_file
    try:
        campaign = load_artifact_file(args.artifact)
    except (OSError, ValueError) as error:
        parser.error(f"{args.artifact}: {error}")
    if not isinstance(campaign, CampaignResult):
        parser.error(f"{args.artifact}: repro-reduce needs a "
                     f"repro-campaign/1 artifact, got "
                     f"{type(campaign).__name__}")
    if args.workers is not None and args.engine != "parallel":
        parser.error("--workers only applies to --engine parallel")
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    from ..pipeline.cli import _fault_options, _finish, _write_json
    from ..pipeline.parallel import open_store
    fault_options = _fault_options(parser, args)
    started = time.perf_counter()
    with open_store(args.store) as store:
        result = run_reduction_campaign(
            campaign, engine=args.engine, max_steps=args.max_steps,
            with_triage=not args.no_triage, workers=args.workers,
            limit=args.limit, store=store, **fault_options)
    elapsed = time.perf_counter() - started
    _write_json(args.output, result, args.indent)

    if not args.quiet:
        from ..report import reduce_table, render
        candidates = result.total("steps_tried")
        rate = candidates / elapsed if elapsed > 0 else 0.0
        print(f"reduction campaign: {result.family}-{result.version}, "
              f"{result.witnesses} witnesses ({args.engine} engine, "
              f"{result.debugger})")
        print(f"elapsed: {elapsed:.2f}s ({candidates} candidates, "
              f"{rate:.1f} candidates/sec)")
        print()
        print(render(reduce_table(result), "text"))
    return _finish(result, args)


if __name__ == "__main__":
    sys.exit(main())
