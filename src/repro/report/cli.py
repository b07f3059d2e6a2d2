"""``repro-report`` — render paper deliverables from stored artifacts.

Render one deliverable to stdout (or ``-o FILE``)::

    repro-report table1 campaign-gcc.json --format html
    repro-report venn campaign-gcc.json --conjecture C1 --format csv
    repro-report table4 trunk.json patched.json
    repro-report fig1 study.json --metric availability
    repro-report table3 --system gdb

or materialize everything the artifacts can feed, plus a
``repro-report/1`` manifest, into a directory::

    repro-report all out/ --from campaign-gcc.json --from study.json

The CLI is a thin shell over :mod:`repro.report`: each subcommand loads
artifacts with :func:`~repro.report.model.load_artifact_file`, builds
tables with the library builders, and renders with the shared
renderers — CLI output and library output are byte-identical
(pinned by ``tests/test_report.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..bisect.campaign import BisectCampaignResult
from ..metrics.study import StudyResult
from ..pipeline.campaign import CampaignResult
from ..pipeline.matrix import MatrixCampaignResult
from ..pipeline.reduction import ReductionCampaignResult
from ..staticcheck.campaign import VerifyCampaignResult
from .figures import DEFAULT_VENN_EXCLUDE, fig4_table, venn_table
from .manifest import DELIVERABLE_TITLES, matrix_cell_tables, render_all
from .model import (
    Artifact, TriageSummary, is_store_file, load_artifact_file,
    load_store_artifacts,
)
from .renderers import DEFAULT_FORMATS, RENDERERS, render_many
from .table import Table
from .tables import (
    STUDY_METRICS, bisect_table, failures_table, fig1_tables,
    reduce_table, table1, table2, table3, table4,
    verify_findings_table, verify_table,
)

_FORMAT_CHOICES = tuple(sorted(set(RENDERERS)))


def _parse_formats(text: str) -> List[str]:
    formats = []
    for part in text.split(","):
        fmt = part.strip()
        if not fmt:
            continue
        if fmt not in RENDERERS:
            raise argparse.ArgumentTypeError(
                f"unknown format {fmt!r} "
                f"(known: {', '.join(_FORMAT_CHOICES)})")
        if fmt not in formats:
            formats.append(fmt)
    if not formats:
        raise argparse.ArgumentTypeError("no formats given")
    return formats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Render the paper's tables and figure data from "
                    "stored JSON artifacts (see docs/ARTIFACTS.md).")
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, artifacts="one"):
        sub = commands.add_parser(name, help=help_text)
        if artifacts == "one":
            sub.add_argument("artifact", help="artifact JSON path")
        elif artifacts == "many":
            sub.add_argument("artifacts", nargs="+",
                             help="artifact JSON paths")
        sub.add_argument("--format", "-f", default="md",
                         choices=_FORMAT_CHOICES,
                         help="output format (default: md)")
        sub.add_argument("--output", "-o", metavar="PATH",
                         help="write here instead of stdout")
        return sub

    add("table1", "violations per optimization level "
                  "(campaign or matrix artifact)")
    sub = add("table2", "culprit optimizations (triage artifact, or a "
                        "campaign artifact via its recorded fired "
                        "defects)")
    sub.add_argument("--top", type=int, default=None,
                     help="keep only the N most frequent culprits "
                          "per conjecture")
    sub = add("table3", "the reported-issue catalog (no artifact "
                        "needed)", artifacts="none")
    sub.add_argument("--system", choices=("gcc", "clang", "gdb", "lldb"),
                     help="only issues filed against one system")
    add("table4", "unique violations across versions (matrix artifact "
                  "or several campaign artifacts)", artifacts="many")
    sub = add("venn", "Figure 2/3 region counts (campaign or matrix "
                      "artifact)")
    sub.add_argument("--exclude", nargs="*", metavar="LEVEL",
                     default=list(DEFAULT_VENN_EXCLUDE),
                     help="levels left out of the regions (default: Oz)")
    sub.add_argument("--conjecture", choices=("C1", "C2", "C3"),
                     help="restrict to one conjecture")
    sub = add("fig1", "quantitative study grid (study artifact)")
    sub.add_argument("--metric", default="all",
                     choices=STUDY_METRICS + ("all",),
                     help="which panel (default: all three)")
    add("fig4", "violated-conjecture count per program (campaign or "
                "matrix artifact)")
    add("reduce", "minimized witnesses (reduction artifact)")
    add("bisect", "defect version ranges vs the catalog ground truth "
                  "(bisect artifact)")
    add("failures", "contained failure records of a degraded run "
                    "(campaign, matrix, verify, reduction, or bisect "
                    "artifact)")
    add("verify", "static findings vs fired defects (verify artifact, "
                  "optionally followed by the same toolchain's "
                  "campaign artifact for the dynamic column)",
        artifacts="many")

    sub = commands.add_parser(
        "all", help="render every deliverable the artifacts feed, "
                    "plus a manifest.json")
    sub.add_argument("out_dir", help="output directory")
    sub.add_argument("--from", dest="sources", action="append",
                     metavar="ARTIFACT", default=[],
                     help="artifact JSON path (repeatable)")
    sub.add_argument("--formats", type=_parse_formats,
                     default=list(DEFAULT_FORMATS), metavar="FMT[,FMT]",
                     help="comma-separated formats "
                          "(default: md,html,csv)")
    sub.add_argument("--no-catalog", action="store_true",
                     help="skip the artifact-independent Table 3")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress the per-file summary")
    return parser


def _load(parser: argparse.ArgumentParser, path: str) -> Artifact:
    try:
        return load_artifact_file(path)
    except (OSError, ValueError) as error:
        parser.error(f"{path}: {error}")


def _expect(parser, artifact, types, command) -> Artifact:
    if not isinstance(artifact, types):
        names = "/".join(t.__name__ for t in types)
        parser.error(f"{command} needs a {names} artifact, got "
                     f"{type(artifact).__name__}")
    return artifact


def _expand_source(parser, path: str) -> List[Artifact]:
    """One artifact path — or every run of a store file."""
    try:
        if is_store_file(path):
            return load_store_artifacts(path)
    except (OSError, ValueError) as error:
        parser.error(f"{path}: {error}")
    return [_load(parser, path)]


def _load_typed(parser, path: str, types, command) -> Artifact:
    """Load one artifact of the wanted type(s) from a JSON document
    or a ``repro-db/2`` store file.

    A store needs no export step: the run whose type the subcommand
    wants is selected directly, and several stored campaign cells are
    assembled into a matrix when the subcommand accepts one.
    """
    try:
        from_store = is_store_file(path)
    except OSError as error:
        parser.error(f"{path}: {error}")
    if not from_store:
        return _expect(parser, _load(parser, path), types, command)
    matches = [artifact for artifact in _expand_source(parser, path)
               if isinstance(artifact, types)]
    if len(matches) == 1:
        return matches[0]
    if (MatrixCampaignResult in types and
            sum(isinstance(a, CampaignResult) for a in matches) > 1):
        from ..store import CampaignStore
        try:
            with CampaignStore(path) as store:
                return store.export_matrix()
        except ValueError as error:
            parser.error(f"{path}: {error}")
    names = "/".join(t.__name__ for t in types)
    if not matches:
        parser.error(f"{path}: store holds no {names} run "
                     f"(see 'repro-db list')")
    parser.error(f"{path}: store holds {len(matches)} {names} runs; "
                 f"export the one you want with 'repro-db export "
                 f"--run ID'")


def _per_campaign(artifact, builder, **kwargs) -> List[Table]:
    """Apply a campaign-table builder across matrix cells if needed."""
    if isinstance(artifact, MatrixCampaignResult):
        return matrix_cell_tables(artifact, builder, **kwargs)
    return [builder(artifact, **kwargs)]


def _emit(args, tables: Sequence[Table], deliverable: str) -> int:
    title = (DELIVERABLE_TITLES.get(deliverable)
             if len(tables) > 1 else None)
    text = render_many(tables, args.format, title=title)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command

    if command == "all":
        if not args.sources:
            parser.error("repro-report all needs at least one "
                         "--from ARTIFACT")
        artifacts = []
        for path in args.sources:
            artifacts.extend(_expand_source(parser, path))
        manifest = render_all(
            artifacts, args.out_dir, formats=args.formats,
            include_catalog=not args.no_catalog)
        if not args.quiet:
            for report in manifest["reports"]:
                print(f"{report['path']}: {report['deliverable']} "
                      f"({report['bytes']} bytes)")
            print(f"manifest written to {args.out_dir}/manifest.json")
        return 0

    if command == "table3":
        return _emit(args, [table3(system=args.system)], "table3")

    if command == "table2":
        artifact = _load_typed(parser, args.artifact,
                               (TriageSummary, CampaignResult), command)
        if isinstance(artifact, CampaignResult):
            # Triage at campaign scale: the stored fired-defect record
            # stands in for a recompile-everything triage run.
            if not any(p.fired for p in artifact.programs):
                parser.error(
                    f"{args.artifact}: campaign artifact carries no "
                    f"fired-defect records (stored before the 'fired' "
                    f"field existed?); re-run the campaign or pass a "
                    f"repro-triage/1 artifact")
            artifact = TriageSummary.from_campaign(artifact)
        return _emit(args, [table2(artifact, top=args.top)], "table2")

    if command == "reduce":
        reduction = _load_typed(parser, args.artifact,
                                (ReductionCampaignResult,), command)
        return _emit(args, [reduce_table(reduction)], "reduce")

    if command == "bisect":
        bisection = _load_typed(parser, args.artifact,
                                (BisectCampaignResult,), command)
        return _emit(args, [bisect_table(bisection)], "bisect")

    if command == "failures":
        artifact = _load_typed(
            parser, args.artifact,
            (CampaignResult, MatrixCampaignResult, VerifyCampaignResult,
             ReductionCampaignResult, BisectCampaignResult), command)
        return _emit(args, [failures_table(artifact)], "failures")

    if command == "verify":
        if len(args.artifacts) > 2:
            parser.error("verify takes a repro-verify/1 artifact plus "
                         "at most one repro-campaign/1 artifact")
        verify = _load_typed(parser, args.artifacts[0],
                             (VerifyCampaignResult,), command)
        paired = None
        if len(args.artifacts) == 2:
            paired = _load_typed(parser, args.artifacts[1],
                                 (CampaignResult,), command)
        try:
            tables = [verify_table(verify, paired),
                      verify_findings_table(verify)]
        except ValueError as error:
            parser.error(str(error))
        return _emit(args, tables, "verify")

    if command == "fig1":
        study = _load_typed(parser, args.artifact,
                            (StudyResult,), command)
        metrics = (STUDY_METRICS if args.metric == "all"
                   else (args.metric,))
        return _emit(args, fig1_tables(study, metrics), "fig1")

    if command == "table4":
        artifacts = [
            _load_typed(parser, path,
                        (CampaignResult, MatrixCampaignResult), command)
            for path in args.artifacts]
        if len(artifacts) == 1 and isinstance(artifacts[0],
                                              MatrixCampaignResult):
            return _emit(args, [table4(artifacts[0])], "table4")
        campaigns = [_expect(parser, a, (CampaignResult,), command)
                     for a in artifacts]
        return _emit(args, [table4(campaigns)], "table4")

    # table1 / venn / fig4: one campaign or matrix artifact (a JSON
    # document or a store file, whose cells render without an export).
    artifact = _load_typed(parser, args.artifact,
                           (CampaignResult, MatrixCampaignResult),
                           command)
    if command == "table1":
        return _emit(args, _per_campaign(artifact, table1), "table1")
    if command == "venn":
        return _emit(args, _per_campaign(
            artifact, venn_table, exclude=tuple(args.exclude),
            conjecture=args.conjecture), "venn")
    if command == "fig4":
        return _emit(args, _per_campaign(artifact, fig4_table), "fig4")
    raise AssertionError(f"unhandled command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
