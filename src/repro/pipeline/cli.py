"""``repro-campaign`` — run a testing campaign from the command line.

Runs the Section 5.1 campaign (serial or sharded across worker
processes), writes the result as a JSON artifact, and prints the Table 1
and Venn-region summaries::

    repro-campaign --family gcc --pool-size 100 --workers 4 \
        --output campaign-gcc.json

Artifacts are plain :meth:`CampaignResult.to_json` documents
(``repro-campaign/1`` schema, specified in ``docs/ARTIFACTS.md``);
reload them with ``CampaignResult.from_json(path.read_text())`` to
compare campaigns across runs or machines, render them later with
``repro-report``, or pass ``--report DIR`` to materialize the
Markdown/HTML/CSV paper deliverables (plus a ``repro-report/1``
manifest) in the same run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from ..compilers.compiler import CompilerSpec
from ..debugger import NATIVE_DEBUGGERS
from ..debugger.specs import DEBUGGER_REGISTRY, DebuggerSpec
from .campaign import run_campaign
from .matrix import run_matrix_campaign
from .parallel import (
    default_workers, open_store, run_campaign_parallel,
    run_matrix_campaign_parallel,
)


def _parse_families(text: str):
    families = []
    for part in text.split(","):
        family = part.strip()
        if not family:
            continue
        if family not in ("gcc", "clang"):
            raise argparse.ArgumentTypeError(
                f"unknown compiler family {family!r}")
        if family not in families:  # "gcc,gcc" would double-count cells
            families.append(family)
    if not families:
        raise argparse.ArgumentTypeError("no families given")
    return tuple(families)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run a conjecture-violation campaign (Table 1 / "
                    "Figures 2-4) and write a JSON artifact.")
    add_toolchain_args(parser)
    parser.add_argument("--families", type=_parse_families,
                        metavar="FAM[,FAM]",
                        help="run the compile-once evaluation matrix "
                             "over these families (e.g. gcc,clang) x "
                             "every level x both debuggers; overrides "
                             "--family/--debugger")
    parser.add_argument("--debugger", default="auto",
                        choices=("auto",) + tuple(sorted(DEBUGGER_REGISTRY)),
                        help="debugger; 'auto' picks the family's native "
                             "one (gdb-like for gcc, lldb-like for clang)")
    parser.add_argument("--output", metavar="PATH",
                        help="write the campaign artifact JSON here")
    add_common_driver_args(parser)
    parser.add_argument("--indent", type=int, default=2,
                        help="artifact JSON indentation (default: 2)")
    parser.add_argument("--report", metavar="DIR",
                        help="render the paper deliverables (Table 1/4, "
                             "Venn, Figure 4) plus a manifest.json into "
                             "this directory")
    parser.add_argument("--report-formats", type=_parse_formats_csv,
                        default=None, metavar="FMT[,FMT]",
                        help="formats for --report "
                             "(default: md,html,csv)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary tables")
    return parser


def add_toolchain_args(
        parser: argparse.ArgumentParser,
        family_help: str = "compiler family",
        version_help: str = "compiler version (default: trunk)",
        pool_size: Optional[int] = 100,
        pool_help: str = "number of generated programs",
        seed_help: str = "first seed of the campaign range",
        levels_help: str = "optimization levels (default: every "
                           "optimized level of the family)") -> None:
    """The ``--family``/``--version``/``--pool-size``/``--seed-base``/
    ``--levels`` and ``--workers``/``--serial``/``--start-method`` group
    the seed-range driver CLIs share (campaign, verify, bisect); the
    defaults and help texts that differ are parameters.  Resolve the
    worker count with :func:`resolve_workers`."""
    parser.add_argument("--family", choices=("gcc", "clang"),
                        default="gcc", help=family_help)
    parser.add_argument("--version", default="trunk", help=version_help)
    parser.add_argument("--pool-size", type=int, default=pool_size,
                        help=pool_help)
    parser.add_argument("--seed-base", type=int, default=0,
                        help=seed_help)
    parser.add_argument("--levels", nargs="+", metavar="LEVEL",
                        help=levels_help)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: CPU count; "
                             "1 = in-process)")
    parser.add_argument("--serial", action="store_true",
                        help="force the serial driver (ignores --workers)")
    parser.add_argument("--start-method", default="spawn",
                        choices=("spawn", "fork", "forkserver"),
                        help="multiprocessing start method")


def resolve_workers(parser: argparse.ArgumentParser, args) -> int:
    """The worker count :func:`add_toolchain_args` options ask for: 1
    under ``--serial``, else ``--workers`` (which must be >= 1), else
    the CPU count."""
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.serial:
        return 1
    return args.workers if args.workers is not None else default_workers()


def add_common_driver_args(parser: argparse.ArgumentParser,
                           unit: str = "seed",
                           sharded: bool = True) -> None:
    """The ``--store``/``--faults``/``--max-attempts`` /
    ``--no-retry-failed`` group every campaign driver CLI shares
    (campaign, verify, reduce, bisect).  ``unit`` is the driver's unit
    of resume and containment ("seed" or "witness"); ``sharded``
    drivers also spend the attempt budget on crashed-shard respawns.
    """
    parser.add_argument("--store", metavar="PATH",
                        help=f"persistent campaign store (repro-db/2 "
                             f"sqlite file): finished {unit}s are "
                             f"written through and replayed on the "
                             f"next run, so an interrupted or extended "
                             f"run only pays for the delta")
    parser.add_argument("--faults", metavar="PLAN.json",
                        help="inject faults from a repro-faults/1 plan "
                             "(deterministic chaos testing: the run "
                             "completes and records every injected "
                             "failure)")
    budget = f"containment retry budget per {unit}"
    if sharded:
        budget += " and respawn budget per crashed shard"
    parser.add_argument("--max-attempts", type=int, default=None,
                        metavar="N", help=f"{budget} (default: 3)")
    parser.add_argument("--no-retry-failed", action="store_true",
                        help=f"with --store, carry quarantined failure "
                             f"records forward instead of retrying the "
                             f"failed {unit}s")


def _parse_formats_csv(text: str):
    from ..report.cli import _parse_formats
    return _parse_formats(text)


def _run_driver(args, serial: bool, workers: int, drivers, *inputs,
                **options):
    """Run a driver CLI's job with the ``(serial, sharded)`` pair in
    ``drivers``: the serial driver over the open ``--store``, or the
    sharded one over its path with ``workers`` and ``--start-method``."""
    serial_driver, sharded_driver = drivers
    if serial:
        with open_store(args.store) as store:
            return serial_driver(*inputs, store=store, **options)
    return sharded_driver(*inputs, workers=workers,
                          start_method=args.start_method,
                          store_path=args.store, **options)


def _run_campaign(args, debugger: str, workers: int, serial: bool,
                  fault_options: dict):
    """The single-cell campaign :func:`add_toolchain_args` options ask
    for, through :func:`_run_driver`."""
    return _run_driver(
        args, serial, workers, (run_campaign, run_campaign_parallel),
        CompilerSpec(family=args.family, version=args.version).build(),
        DebuggerSpec(name=debugger).build(), pool_size=args.pool_size,
        seed_base=args.seed_base, levels=args.levels, **fault_options)


def _write_json(path: Optional[str], result, indent: int) -> None:
    """Write ``result``'s artifact JSON to ``path`` (when one is given)."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=indent))
            handle.write("\n")


def _fault_options(parser: argparse.ArgumentParser, args) -> dict:
    """The containment kwargs shared by every campaign CLI
    (``--faults/--max-attempts/--no-retry-failed``)."""
    from ..faults import DEFAULT_MAX_ATTEMPTS, FaultPlan
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.load(args.faults)
        except (OSError, ValueError) as error:
            parser.error(f"--faults: {error}")
    if args.max_attempts is not None and args.max_attempts < 1:
        parser.error(
            f"--max-attempts must be >= 1, got {args.max_attempts}")
    return {
        "faults": plan,
        "max_attempts": (args.max_attempts if args.max_attempts
                         is not None else DEFAULT_MAX_ATTEMPTS),
        "retry_failed": not args.no_retry_failed,
    }


def _finish(result, args, formats=None) -> int:
    """The tail every driver CLI shares: the artifact notice, one
    warning line when the run degraded gracefully, and ``--report DIR``
    in ``formats`` (default: md, html and csv).  Returns the exit code."""
    failures = result.failures
    if not args.quiet:
        if args.output:
            print()
            print(f"artifact written to {args.output}")
        if failures:
            quarantined = sum(1 for record in failures
                              if record.status == "quarantined")
            print(f"failures: {len(failures)} recorded "
                  f"({quarantined} quarantined) — render with "
                  f"'repro-report failures'")
    if args.report:
        from ..report.manifest import render_all
        from ..report.renderers import DEFAULT_FORMATS
        render_all([result], args.report,
                   formats=formats or DEFAULT_FORMATS)
        if not args.quiet:
            print(f"report written to {args.report}/manifest.json")
    return 0


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
    mode = "serial" if args.serial or workers <= 1 else \
        f"{workers} workers"
    started = time.perf_counter()
    if args.families:
        # The compile-once matrix over every family x level x debugger.
        result = _run_driver(
            args, args.serial or workers <= 1, workers,
            (run_matrix_campaign, run_matrix_campaign_parallel),
            families=args.families, version=args.version,
            pool_size=args.pool_size, seed_base=args.seed_base,
            levels=args.levels, **fault_options)
        heading = (f"matrix campaign: {'/'.join(args.families)}-"
                   f"{args.version}, {result.pool_size} programs, "
                   f"{len(result.cells)} cells ({mode})")
    else:
        debugger_name = args.debugger
        if debugger_name == "auto":
            debugger_name = NATIVE_DEBUGGERS[args.family].name
        result = _run_campaign(args, debugger_name, workers, args.serial,
                               fault_options)
        heading = (f"campaign: {result.family}-{result.version}, "
                   f"{result.pool_size} programs, levels "
                   f"{'/'.join(result.levels)}, {debugger_name} ({mode})")
    elapsed = time.perf_counter() - started

    _write_json(args.output, result, args.indent)

    if not args.quiet:
        rate = result.pool_size / elapsed if elapsed > 0 else 0.0
        print(heading)
        print(f"elapsed: {elapsed:.2f}s ({rate:.2f} programs/sec)")
        print()
        if args.families:
            print(result.format_summary())
        else:
            from ..report import format_table1_text, format_venn_text
            print("Table 1 — violations per optimization level")
            print(format_table1_text(result))
            print()
            print("Venn regions — unique violations per exact level set")
            print(format_venn_text(result))
    return _finish(result, args, args.report_formats)


if __name__ == "__main__":
    sys.exit(main())
