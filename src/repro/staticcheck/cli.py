"""``repro-verify`` — run a static-verification campaign from the CLI.

Compiles a generated program pool at every optimization level, runs the
static debug-info verifier over each linked executable (no debugger, no
VM execution), writes the result as a ``repro-verify/1`` JSON artifact,
and prints a findings summary::

    repro-verify --family gcc --pool-size 100 --workers 4 \
        --output verify-gcc.json

Render a stored artifact later — including the static-vs-dynamic
comparison against a ``repro-campaign/1`` artifact for the same
toolchain — with ``repro-report verify``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from ..compilers.compiler import CompilerSpec
from ..pipeline.cli import (
    _fault_options, _finish, _run_driver, _write_json,
    add_common_driver_args, add_toolchain_args, resolve_workers,
)
from .campaign import (
    run_verify_campaign, run_verify_campaign_parallel,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Statically verify the debug info of a generated "
                    "program pool at every optimization level and "
                    "write a repro-verify/1 JSON artifact.")
    add_toolchain_args(
        parser, levels_help="optimization levels (default: every level "
                            "of the family, O0 included)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the verify artifact JSON here")
    add_common_driver_args(parser)
    parser.add_argument("--indent", type=int, default=2,
                        help="artifact JSON indentation (default: 2)")
    parser.add_argument("--report", metavar="DIR",
                        help="render the verify deliverables plus a "
                             "manifest.json into this directory")
    parser.add_argument("--report-formats", type=_parse_formats_csv,
                        default=None, metavar="FMT[,FMT]",
                        help="formats for --report "
                             "(default: md,html,csv)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary tables")
    return parser


def _parse_formats_csv(text: str):
    from ..report.cli import _parse_formats
    return _parse_formats(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point with graceful-shutdown parity: SIGTERM (like
    Ctrl-C) checkpoints finished work to the ``--store`` file on the
    way out and exits 130."""
    from ..faults import run_interruptible
    return run_interruptible(_main, argv)


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    workers = resolve_workers(parser, args)
    fault_options = _fault_options(parser, args)
    started = time.perf_counter()
    result = _run_driver(
        args, args.serial, workers,
        (run_verify_campaign, run_verify_campaign_parallel),
        CompilerSpec(family=args.family, version=args.version).build(),
        pool_size=args.pool_size, seed_base=args.seed_base,
        levels=args.levels, **fault_options)
    elapsed = time.perf_counter() - started

    _write_json(args.output, result, args.indent)

    if not args.quiet:
        from ..report import format_verify_findings_text
        mode = "serial" if args.serial or args.workers == 1 else \
            "parallel"
        rate = result.pool_size / elapsed if elapsed > 0 else 0.0
        print(f"verify campaign: {result.family}-{result.version}, "
              f"{result.pool_size} programs, levels "
              f"{'/'.join(result.levels)} ({mode})")
        print(f"elapsed: {elapsed:.2f}s ({rate:.2f} programs/sec)")
        print(f"findings: {result.finding_count()}")
        if not result.clean():
            print()
            print("Findings per check and level")
            print(format_verify_findings_text(result))
    return _finish(result, args, args.report_formats)


if __name__ == "__main__":
    sys.exit(main())
