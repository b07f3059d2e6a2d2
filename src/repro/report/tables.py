"""Builders for the paper's tables (Table 1-4) as report values.

Each builder consumes a typed artifact (or the in-repo issue catalog)
and produces a :class:`~repro.report.table.Table`; pair it with any
renderer from :mod:`repro.report.renderers`::

    from repro.report import load_artifact_file, render, table1

    campaign = load_artifact_file("campaign-gcc.json")
    print(render(table1(campaign), "md"))

``format_table1_text``/``format_venn_text`` are the fixed-width console
strings ``repro-campaign`` prints (the ``text`` renderer over
:func:`table1` / :func:`~repro.report.figures.venn_table`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..bugs.catalog import ISSUES, CatalogIssue, defects_for_family, issue_counts
from ..conjectures.base import CONJECTURES
from ..metrics.study import StudyResult
from ..pipeline.campaign import CampaignResult
from ..pipeline.matrix import MatrixCampaignResult
from ..staticcheck.campaign import VerifyCampaignResult
from .model import TriageSummary
from .renderers import render
from .table import Table

# -- Table 1 ------------------------------------------------------------------


def table1(campaign: CampaignResult) -> Table:
    """Violations per optimization level, plus the deduplicated row."""
    counts = campaign.table1()
    rows: List[List[object]] = []
    for level in list(campaign.levels) + ["unique"]:
        rows.append([level] + [counts[level][c] for c in CONJECTURES])
    return Table(
        title=(f"Table 1 — conjecture violations "
               f"({campaign.family}-{campaign.version}, "
               f"{campaign.pool_size} programs)"),
        columns=["level"] + list(CONJECTURES),
        rows=rows,
        note=("Violations per optimization level; the 'unique' row "
              "deduplicates by (conjecture, line, variable) across "
              "levels."),
        kind="table1",
        text_widths=(8,) + (5,) * len(CONJECTURES),
    )


def format_table1_text(campaign: CampaignResult) -> str:
    """The legacy fixed-width Table 1 text, byte for byte."""
    return render(table1(campaign), "text")


# -- Table 2 ------------------------------------------------------------------


def table2(summary: TriageSummary, top: Optional[int] = None) -> Table:
    """Triaged culprit optimizations per conjecture (Section 5.2)."""
    rows: List[List[object]] = []
    for conjecture in CONJECTURES:
        culprits = summary.counts.get(conjecture, {})
        ranked = sorted(culprits.items(),
                        key=lambda item: (-item[1], item[0]))
        if top is not None:
            ranked = ranked[:top]
        for culprit, count in ranked:
            rows.append([conjecture, culprit, count])
    method = {"flags": "-fno-<flag> search",
              "bisect": "opt-bisect-limit",
              "defects": "recorded fired defects"}.get(
                  summary.method, summary.method)
    return Table(
        title=f"Table 2 — culprit optimizations "
              f"({summary.family}, {method})",
        columns=["conjecture", "culprit", "count"],
        rows=rows,
        note=(f"{summary.triaged} violations triaged, "
              f"{summary.failed} method failures."),
        kind="table2",
    )


# -- Table 3 ------------------------------------------------------------------


def table3(issues: Optional[Sequence[CatalogIssue]] = None,
           system: Optional[str] = None) -> Table:
    """The reported-issue catalog, in Table 3 order."""
    if issues is None:
        issues = ISSUES
    if system is not None:
        issues = [i for i in issues if i.system == system]
    rows: List[List[object]] = [
        [issue.tracker_id, issue.system, issue.status, issue.conjecture,
         issue.category or "-", issue.defect.pass_name,
         "/".join(issue.defect.levels) if issue.defect.levels else "any"]
        for issue in issues
    ]
    counts = issue_counts(issues)
    per_system = ", ".join(f"{n} {name}" for name, n
                           in sorted(counts["system"].items()))
    title = "Table 3 — reported issues"
    if system is not None:
        title += f" ({system})"
    return Table(
        title=title,
        columns=["tracker", "system", "status", "conjecture",
                 "DWARF analysis", "pass", "levels"],
        rows=rows,
        note=f"{counts['total']} issues: {per_system}.",
        kind="table3",
    )


# -- Table 4 ------------------------------------------------------------------

CampaignSet = Union[MatrixCampaignResult, Sequence[CampaignResult]]


def _campaign_columns(campaigns: CampaignSet
                      ) -> List[Tuple[str, CampaignResult]]:
    """(column label, campaign) pairs for a version-comparison table."""
    if isinstance(campaigns, MatrixCampaignResult):
        pairs = []
        debuggers = {key[2] for key in campaigns.cells}
        for family, version, debugger in campaigns.cell_keys():
            label = f"{family}-{version}"
            if len(debuggers) > 1:
                label += f" ({debugger})"
            pairs.append((label,
                          campaigns.cells[(family, version, debugger)]))
        return pairs
    pairs = [(f"{c.family}-{c.version}", c) for c in campaigns]
    # Two campaigns may legitimately share family-version (e.g. the
    # same compiler traced under different debuggers); number the
    # duplicates so Table.lookup never silently answers for the wrong
    # column.
    seen: dict = {}
    labeled = []
    for label, campaign in pairs:
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label} ({seen[label]})"
        labeled.append((label, campaign))
    return labeled


def table4(campaigns: CampaignSet) -> Table:
    """Unique violations per conjecture across compiler versions.

    Accepts either a :class:`MatrixCampaignResult` (one column per cell)
    or any sequence of :class:`CampaignResult` values — e.g. the same
    fixed pool run through ``gcc-trunk`` and ``gcc-patched`` (the
    Section 5.4 regression study).
    """
    pairs = _campaign_columns(campaigns)
    if not pairs:
        raise ValueError("table4 needs at least one campaign")
    rows: List[List[object]] = []
    for conjecture in CONJECTURES:
        rows.append([conjecture] + [campaign.unique_count(conjecture)
                                    for _label, campaign in pairs])
    rows.append(["total programs"] + [campaign.pool_size
                                      for _label, campaign in pairs])
    return Table(
        title="Table 4 — unique violations across versions",
        columns=["conjecture"] + [label for label, _c in pairs],
        rows=rows,
        note=("Unique (conjecture, line, variable) violations per "
              "compiler; columns share the campaign's program pool."),
        kind="table4",
    )


# -- Figure 1 (study grid) ----------------------------------------------------

STUDY_METRICS = ("line_coverage", "availability", "product")


def fig1_table(study: StudyResult, metric: str = "availability") -> Table:
    """One Figure 1 panel: a (version x level) grid of one metric."""
    if metric not in STUDY_METRICS:
        raise ValueError(f"unknown study metric {metric!r} "
                         f"(known: {', '.join(STUDY_METRICS)})")
    versions = sorted({v for v, _l in study.cells})
    levels = sorted({l for _v, l in study.cells})
    rows: List[List[object]] = []
    for version in versions:
        row: List[object] = [version]
        for level in levels:
            cell = study.cells.get((version, level))
            row.append(getattr(cell, metric) if cell else "-")
        rows.append(row)
    return Table(
        title=f"Figure 1 — {metric.replace('_', ' ')} "
              f"({study.pool_size} programs)",
        columns=["version"] + levels,
        rows=rows,
        note=("Averages over the program pool against each program's "
              "-O0 baseline trace."),
        kind=f"fig1_{metric}",
    )


def fig1_tables(study: StudyResult,
                metrics: Sequence[str] = STUDY_METRICS) -> List[Table]:
    """All requested Figure 1 panels."""
    return [fig1_table(study, metric) for metric in metrics]


# -- Static verification (repro-verify/1) -------------------------------------


def _fired_compile_stats(verify: VerifyCampaignResult):
    """Per defect id: compiles it fired in, and compiles where a
    finding indicts that defect's hook point (static detection)."""
    fired: dict = {}
    static: dict = {}
    for program in verify.programs:
        for level, ids in program.fired.items():
            points = program.points(level)
            for defect_id in set(ids):
                fired[defect_id] = fired.get(defect_id, 0) + 1
                if _defect_points().get(defect_id, "") in points:
                    static[defect_id] = static.get(defect_id, 0) + 1
    return fired, static


_POINT_CACHE: dict = {}


def _defect_points() -> dict:
    """defect id -> producer hook point, over the whole catalog."""
    if not _POINT_CACHE:
        for family in ("gcc", "clang"):
            for defect in defects_for_family(family):
                _POINT_CACHE[defect.defect_id] = defect.point
    return _POINT_CACHE


def _dynamic_compile_counts(campaign: CampaignResult) -> dict:
    """Per defect id: compiles where it fired *and* the dynamic checks
    reported at least one conjecture violation at that level."""
    out: dict = {}
    for program in campaign.programs:
        for level, ids in program.fired.items():
            if not program.violations.get(level):
                continue
            for defect_id in set(ids):
                out[defect_id] = out.get(defect_id, 0) + 1
    return out


def verify_table(verify: VerifyCampaignResult,
                 campaign: Optional[CampaignResult] = None) -> Table:
    """Static findings vs. dynamically fired defects, per defect id.

    One row per injected defect that fired anywhere: how many compiles
    it fired in, how many of those the static verifier indicted (a
    finding whose check maps to the defect's hook point), how many the
    dynamic campaign caught (a conjecture violation in the same
    compile), and the resulting class — ``both`` / ``static-only`` /
    ``dynamic-only`` / ``undetected``.  Pass the dynamic campaign for
    the same toolchain to fill the dynamic column; without one it
    renders ``-`` and the class collapses to static/undetected.
    """
    if campaign is not None and \
            (campaign.family, campaign.version) != \
            (verify.family, verify.version):
        raise ValueError(
            f"verify and campaign artifacts describe different "
            f"toolchains: {verify.family}-{verify.version} vs "
            f"{campaign.family}-{campaign.version}")
    fired, static = _fired_compile_stats(verify)
    dynamic = _dynamic_compile_counts(campaign) if campaign else {}
    defect_ids = sorted(set(fired) | set(dynamic))
    points = _defect_points()
    rows: List[List[object]] = []
    for defect_id in defect_ids:
        static_hits = static.get(defect_id, 0)
        dynamic_hits = dynamic.get(defect_id, 0)
        if campaign is None:
            klass = "static" if static_hits else "undetected"
            dynamic_cell: object = "-"
        else:
            klass = {(True, True): "both",
                     (True, False): "static-only",
                     (False, True): "dynamic-only",
                     (False, False): "undetected"}[
                (static_hits > 0, dynamic_hits > 0)]
            dynamic_cell = dynamic_hits
        rows.append([defect_id, points.get(defect_id, "?"),
                     fired.get(defect_id, 0), static_hits,
                     dynamic_cell, klass])
    note = (f"Fired/static counts over {verify.pool_size} programs x "
            f"levels {'/'.join(verify.levels)}; 'static' counts "
            f"compiles where a finding indicts the defect's hook "
            f"point.")
    if campaign is not None:
        note += (f" Dynamic counts compiles with a conjecture "
                 f"violation at the fired level "
                 f"({campaign.pool_size}-program campaign).")
    else:
        note += " No dynamic campaign supplied."
    return Table(
        title=(f"Static verification — findings vs fired defects "
               f"({verify.family}-{verify.version}, "
               f"{verify.pool_size} programs)"),
        columns=["defect", "hook point", "fired", "static",
                 "dynamic", "class"],
        rows=rows,
        note=note,
        kind="verify",
    )


def verify_findings_table(verify: VerifyCampaignResult) -> Table:
    """Finding counts per check id and optimization level."""
    counts = verify.check_counts()
    rows: List[List[object]] = []
    for check in sorted(counts):
        per_level = counts[check]
        rows.append([check] +
                    [per_level.get(level, 0) for level in verify.levels] +
                    [sum(per_level.values())])
    return Table(
        title=(f"Static verification — findings per check "
               f"({verify.family}-{verify.version}, "
               f"{verify.pool_size} programs)"),
        columns=["check"] + list(verify.levels) + ["total"],
        rows=rows,
        note=("Raw finding counts; a defect-free toolchain renders an "
              "empty table (the zero-false-positive bar)."),
        kind="verify_findings",
    )


def format_verify_findings_text(verify: VerifyCampaignResult) -> str:
    """Fixed-width findings-per-check summary (``repro-verify`` CLI)."""
    return render(verify_findings_table(verify), "text")


# -- Reduction (repro-reduce/1) ----------------------------------------------


def reduce_table(reduction: "ReductionCampaignResult") -> Table:
    """Minimized witnesses of one reduction campaign.

    One row per reduced violation: where it came from, the preserved
    culprit, and how far the reducer shrank it.
    """
    rows: List[List[object]] = [
        [record.seed, record.level, record.conjecture, record.variable,
         record.culprit or "-", record.original_size,
         record.reduced_size, record.reduction_ratio,
         record.steps_tried]
        for record in reduction.records
    ]
    stats = reduction.stats
    note = (f"{reduction.witnesses} witnesses reduced with the "
            f"{reduction.engine} engine in {reduction.debugger}; "
            f"{reduction.total('steps_tried')} candidates, "
            f"{reduction.total('steps_accepted')} accepted")
    if stats.get("memo_hits"):
        note += f", {stats['memo_hits']} oracle-memo hits"
    return Table(
        title=(f"Reduction — minimized witnesses "
               f"({reduction.family}-{reduction.version}, "
               f"{reduction.pool_size}-program campaign)"),
        columns=["seed", "level", "conjecture", "variable", "culprit",
                 "original", "reduced", "ratio", "candidates"],
        rows=rows,
        note=note + ".",
        kind="reduce",
    )


# -- Bisection (repro-bisect/1) ----------------------------------------------


def bisect_table(bisect: "BisectCampaignResult") -> Table:
    """The defect x version-range regression table of one bisection.

    One row per bisected defect window: the witness it was bisected
    from, the observed ``(last-good, first-bad, fixed-in)`` boundary in
    version names, the catalog's static window for cross-reference, and
    the agreement class — ``match`` (observed boundary equals the
    catalog window), ``clipped`` (equals the catalog window intersected
    with the versions that schedule the defect's pass at this level),
    ``inactive`` (correctly never fired at this level), ``masked``
    (seen firing in a full compile but never under the isolated probe —
    a defect exposed only by another defect's interference), or
    ``mismatch`` (the dynamic bisection disagrees with the static
    catalog — a real regression in one of the two).
    """
    from ..bisect.core import expected_window, family_versions
    versions = family_versions(bisect.family)

    def name(index: Optional[int]) -> str:
        return versions[index] if index is not None else "-"

    catalog = {defect.defect_id: defect
               for defect in defects_for_family(bisect.family)}
    rows: List[List[object]] = []
    agreement: dict = {}
    for record in bisect.records:
        defect = catalog.get(record.defect)
        if defect is None:
            klass = "unknown"
        else:
            expected = expected_window(defect, bisect.family,
                                       record.level)
            observed = (record.last_good, record.first_bad,
                        record.fixed_in)
            naive = (record.introduced - 1 if record.introduced > 0
                     else None,
                     record.introduced, record.catalog_fixed_in)
            if observed == (expected.last_good, expected.first_bad,
                            expected.fixed_in):
                if record.first_bad is None:
                    klass = "inactive"
                else:
                    klass = "match" if observed == naive else "clipped"
            elif record.first_bad is None:
                klass = "masked"
            else:
                klass = "mismatch"
        agreement[klass] = agreement.get(klass, 0) + 1
        catalog_range = name(record.introduced)
        catalog_range += (f"..{name(record.catalog_fixed_in)}"
                          if record.catalog_fixed_in is not None
                          else "..")
        rows.append([record.seed, record.level, record.conjecture,
                     record.variable, record.defect, record.origin,
                     name(record.last_good), name(record.first_bad),
                     name(record.fixed_in), catalog_range, klass,
                     record.probes])
    stats = bisect.stats
    summary = ", ".join(f"{count} {klass}" for klass, count
                        in sorted(agreement.items())) or "no records"
    note = (f"{len(bisect.records)} defect windows over "
            f"{bisect.witnesses} witnesses on the "
            f"{'/'.join(versions)} axis ({summary}); "
            f"{stats.get('probes', 0)} probes answered "
            f"{stats.get('consults', 0)} consults "
            f"({stats.get('memo_hits', 0)} memo hits). Catalog column "
            f"is the static introduced..fixed-in window; 'clipped' "
            f"rows shrink it to versions scheduling the defect's "
            f"pass.")
    return Table(
        title=(f"Bisection — defect version ranges "
               f"({bisect.family}-{bisect.version}, "
               f"{bisect.pool_size}-program campaign)"),
        columns=["seed", "level", "conjecture", "variable", "defect",
                 "origin", "last-good", "first-bad", "fixed-in",
                 "catalog", "class", "probes"],
        rows=rows,
        note=note,
        kind="bisect",
    )


# -- Fault tolerance (failures field of any campaign artifact) ----------------


def failures_table(artifact) -> Table:
    """Contained failure records of one degraded run.

    One row per :class:`~repro.faults.FailureRecord` carried on the
    artifact's ``failures`` field (campaign, matrix, verify, or
    reduction — the matrix aggregates its cells).  ``quarantined`` rows
    produced no result and are retried on the next resumed run against
    the same store; ``recovered`` rows only carry the attempt
    accounting, the result itself is present.  A fault-free run renders
    an empty table.
    """
    from ..faults import failure_census
    failures = sorted(artifact.failures)
    rows: List[List[object]] = [
        [record.seed, record.cell, record.item or "-", record.stage,
         record.kind, record.status, record.attempts, record.error,
         record.detail or "-"]
        for record in failures
    ]
    quarantined = sum(1 for record in failures
                      if record.status == "quarantined")
    note = (f"{len(failures)} contained failures "
            f"({quarantined} quarantined, "
            f"{len(failures) - quarantined} recovered).")
    census = failure_census(failures)
    if census:
        summary = ", ".join(
            f"{stage}/{kind}/{error} x{count}"
            for (stage, kind, error), count in sorted(census.items()))
        note += f" Census: {summary}."
    return Table(
        title=(f"Fault tolerance — contained failures "
               f"({quarantined} quarantined)"),
        columns=["seed", "cell", "item", "stage", "kind", "status",
                 "attempts", "error", "detail"],
        rows=rows,
        note=note,
        kind="failures",
    )
