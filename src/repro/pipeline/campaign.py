"""End-to-end testing campaigns (Section 5.1/5.2 drivers).

``run_campaign`` reproduces the paper's core experiment: generate N
programs, compile each at every optimization level of a compiler, trace in
the family's native debugger, check the three conjectures, and aggregate:

* per-level violation counts per conjecture (Table 1's body);
* unique violations (deduplicated across levels — Table 1's last row);
* the level-set membership of each unique violation (Figures 2/3's Venn
  regions);
* per-program violated-conjecture counts (Figure 4's grid rows).

Results are **pure, mergeable values**: a shard's ``CampaignResult`` is a
plain dataclass over frozen :class:`~repro.conjectures.base.Violation`
records, :meth:`CampaignResult.merge` is associative and order-independent
over disjoint seed ranges (it renormalizes program order by seed), and
``to_json``/``from_json`` round-trip exactly. This is what lets the
parallel driver (:mod:`repro.pipeline.parallel`) shard a campaign across
processes and still reproduce the serial aggregates bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..analysis.source_facts import SourceFacts
from ..compilers.compiler import Compiler
from ..conjectures.base import CONJECTURES, Violation, check_all
from ..debugger.base import Debugger
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import (
    FailureRecord, failures_from_dicts, failures_to_dicts,
    merge_failures,
)
from ..fuzz.seeds import SeedSpec
from ..lang.ast_nodes import Program

#: A unique violation identity: (conjecture, line, variable).
ViolationKey = Tuple[str, int, str]

#: Artifact schema tag; bump only with a migration path in ``from_dict``.
CAMPAIGN_SCHEMA = "repro-campaign/1"

_VIOLATION_FIELDS = (
    "conjecture", "line", "variable", "function", "observed", "detail",
)


def missing_field_error(schema: str, error: KeyError) -> ValueError:
    """The uniform diagnosis every artifact loader raises when a stored
    document lacks a required field — callers (DB ingest, CLI loads)
    report it instead of a bare ``KeyError``."""
    return ValueError(f"malformed {schema} artifact: "
                      f"missing field {error.args[0]!r}")


def fold_results(results: Iterable, what: str = "results"):
    """Fold shard results into one via pairwise ``merge``.

    The one folder every result type shares, so the edge cases behave
    identically everywhere: an empty iterable raises immediately (not
    after consuming the input), and a single shard is returned **as
    is** — the exact object, never a lossy copy — so ``fold([r])``
    round-trips unchanged.
    """
    iterator = iter(results)
    try:
        merged = next(iterator)
    except StopIteration:
        raise ValueError(
            f"cannot merge an empty sequence of {what}") from None
    for result in iterator:
        merged = merged.merge(result)
    return merged


def _violation_to_dict(violation: Violation) -> Dict[str, object]:
    return {name: getattr(violation, name) for name in _VIOLATION_FIELDS}


def _violation_from_dict(data: Dict[str, object]) -> Violation:
    return Violation(**{name: data[name] for name in _VIOLATION_FIELDS})


@dataclass
class ProgramResult:
    """All violations found for one test program."""

    seed: int
    violations: Dict[str, List[Violation]] = field(default_factory=dict)
    #: level -> ids of injected defects that fired during that compile
    #: (first-fire order) — the compile-time ground truth that lets
    #: ``repro-triage/1`` summaries be built from a stored campaign
    #: without recompiling anything.
    fired: Dict[str, List[str]] = field(default_factory=dict)

    def unique_keys(self) -> Dict[ViolationKey, Set[str]]:
        """Map each unique violation to the levels it reproduces at."""
        out: Dict[ViolationKey, Set[str]] = {}
        for level, violations in self.violations.items():
            for violation in violations:
                out.setdefault(violation.key(), set()).add(level)
        return out

    def conjectures_violated(self) -> Set[str]:
        return {key[0] for key in self.unique_keys()}

    def fired_defects(self, level: Optional[str] = None) -> List[str]:
        """Defect ids that fired — for one level, or all levels merged
        (sorted, deduplicated) when ``level`` is None."""
        if level is not None:
            return list(self.fired.get(level, []))
        merged: Set[str] = set()
        for ids in self.fired.values():
            merged.update(ids)
        return sorted(merged)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "seed": self.seed,
            "violations": {
                level: [_violation_to_dict(v) for v in violations]
                for level, violations in self.violations.items()
            },
        }
        if self.fired:
            data["fired"] = {level: list(ids)
                             for level, ids in self.fired.items()}
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProgramResult":
        try:
            return cls(
                seed=data["seed"],
                violations={
                    level: [_violation_from_dict(v) for v in violations]
                    for level, violations in data["violations"].items()
                },
                fired={level: list(ids)
                       for level, ids in data.get("fired", {}).items()},
            )
        except KeyError as error:
            raise missing_field_error(CAMPAIGN_SCHEMA, error) from None


@dataclass
class CampaignResult:
    """Aggregated campaign statistics."""

    family: str
    version: str
    levels: List[str]
    pool_size: int = 0
    programs: List[ProgramResult] = field(default_factory=list)
    #: Contained per-(seed, cell) failures (see repro.faults) — empty
    #: on a clean run, and omitted from the serialized artifact when
    #: empty so pre-failure documents round-trip byte-identically.
    failures: List[FailureRecord] = field(default_factory=list)

    # -- Table 1 -----------------------------------------------------------

    def count(self, level: str, conjecture: str) -> int:
        total = 0
        for result in self.programs:
            total += sum(1 for v in result.violations.get(level, ())
                         if v.conjecture == conjecture)
        return total

    def unique_count(self, conjecture: str) -> int:
        keys = set()
        for result in self.programs:
            keys.update((result.seed, k)
                        for k in result.unique_keys()
                        if k[0] == conjecture)
        return len(keys)

    def programs_without_violations(self, conjecture: str) -> int:
        return sum(1 for r in self.programs
                   if conjecture not in r.conjectures_violated())

    def table1(self) -> Dict[str, Dict[str, int]]:
        """{level: {conjecture: count}} plus a "unique" pseudo-level."""
        table = {level: {c: self.count(level, c) for c in CONJECTURES}
                 for level in self.levels}
        table["unique"] = {c: self.unique_count(c) for c in CONJECTURES}
        return table

    # -- Figures 2/3 ---------------------------------------------------------

    def venn(self, exclude: Sequence[str] = ("Oz",),
             conjecture: Optional[str] = None
             ) -> Dict[FrozenSet[str], int]:
        """Counts of unique violations per exact level combination
        (the paper plots these cumulatively over conjectures and leaves
        -Oz out of the diagrams)."""
        regions: Dict[FrozenSet[str], int] = {}
        for result in self.programs:
            for key, levels in result.unique_keys().items():
                if conjecture is not None and key[0] != conjecture:
                    continue
                visible = frozenset(l for l in levels
                                    if l not in exclude)
                if not visible:
                    continue
                regions[visible] = regions.get(visible, 0) + 1
        return regions

    def only_at(self, level: str,
                conjecture: Optional[str] = None) -> int:
        """Unique violations occurring at exactly one level."""
        return self.venn(exclude=(), conjecture=conjecture).get(
            frozenset([level]), 0)

    # -- Figure 4 -------------------------------------------------------------

    def grid_row(self) -> List[int]:
        """#conjectures violated per program, in seed order."""
        return [len(r.conjectures_violated()) for r in self.programs]

    # -- merging ---------------------------------------------------------------

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Combine two shard results into one campaign result.

        Associative and commutative over shards with disjoint seed
        ranges (overlapping ranges would double-count and are rejected):
        program order is renormalized by seed, so any merge tree over
        any shard ordering yields the same value — and the same
        ``table1()``/``venn()``/``grid_row()`` aggregates — as the serial
        run over the union of the ranges.
        """
        if (self.family, self.version) != (other.family, other.version):
            raise ValueError(
                f"cannot merge campaigns of different compilers: "
                f"{self.family}-{self.version} vs "
                f"{other.family}-{other.version}")
        if sorted(self.levels) != sorted(other.levels):
            # Order-insensitive on purpose: shards built with a
            # different level *ordering* hold the same per-level data
            # (violations are keyed by level name); only a different
            # level *set* is a real mismatch.  The merged result keeps
            # the left shard's display order.
            raise ValueError(
                f"cannot merge campaigns over different level sets: "
                f"{self.levels} vs {other.levels}")
        overlap = {p.seed for p in self.programs} & \
            {p.seed for p in other.programs}
        if overlap:
            raise ValueError(
                f"cannot merge campaigns with overlapping seed ranges "
                f"(would double-count): {sorted(overlap)[:5]}...")
        programs = sorted(self.programs + other.programs,
                          key=lambda result: result.seed)
        return CampaignResult(
            family=self.family, version=self.version,
            levels=list(self.levels),
            pool_size=self.pool_size + other.pool_size,
            programs=programs,
            failures=merge_failures(self.failures, other.failures))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": CAMPAIGN_SCHEMA,
            "family": self.family,
            "version": self.version,
            "levels": list(self.levels),
            "pool_size": self.pool_size,
            "programs": [p.to_dict() for p in self.programs],
        }
        if self.failures:
            data["failures"] = failures_to_dicts(self.failures)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """The ``repro-campaign/1`` artifact document (every field is
        specified in ``docs/ARTIFACTS.md``); render it with
        ``repro-report`` or :mod:`repro.report`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignResult":
        schema = data.get("schema")
        if schema != CAMPAIGN_SCHEMA:
            raise ValueError(
                f"not a campaign artifact: schema {schema!r} "
                f"(expected {CAMPAIGN_SCHEMA!r})")
        try:
            return cls(
                family=data["family"], version=data["version"],
                levels=list(data["levels"]), pool_size=data["pool_size"],
                programs=[ProgramResult.from_dict(p)
                          for p in data["programs"]],
                failures=failures_from_dicts(data.get("failures", ())))
        except KeyError as error:
            raise missing_field_error(CAMPAIGN_SCHEMA, error) from None

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        """Load a stored ``repro-campaign/1`` artifact (see
        ``docs/ARTIFACTS.md``; :func:`repro.report.load_artifact`
        dispatches over every schema)."""
        return cls.from_dict(json.loads(text))


def merge_results(results: Iterable[CampaignResult]) -> CampaignResult:
    """Fold any number of shard results into one (at least one needed;
    a single shard is returned unchanged — see :func:`fold_results`)."""
    return fold_results(results)


def test_program_full(program: Program, compiler: Compiler,
                      debugger: Debugger,
                      levels: Optional[Sequence[str]] = None,
                      facts: Optional[SourceFacts] = None
                      ) -> Tuple[Dict[str, List[Violation]],
                                 Dict[str, List[str]]]:
    """Check one program at each level.

    Returns ``(violations per level, fired defect ids per level)`` —
    the second mapping is the compile-time ground truth recorded on
    :class:`ProgramResult` (levels whose compile fired nothing are
    omitted).
    """
    if facts is None:
        facts = SourceFacts(program)
    if levels is None:
        levels = [l for l in compiler.levels if l != "O0"]
    out: Dict[str, List[Violation]] = {}
    fired: Dict[str, List[str]] = {}
    for level in levels:
        compilation = compiler.compile(program, level)
        trace = debugger.trace(compilation.exe)
        out[level] = check_all(facts, trace)
        fired_ids = compilation.fired_defects()
        if fired_ids:
            fired[level] = fired_ids
    return out, fired


def test_program(program: Program, compiler: Compiler,
                 debugger: Debugger,
                 levels: Optional[Sequence[str]] = None,
                 facts: Optional[SourceFacts] = None
                 ) -> Dict[str, List[Violation]]:
    """Check one program at each level; returns violations per level."""
    return test_program_full(program, compiler, debugger, levels,
                             facts)[0]


def run_campaign_seeds(compiler: Compiler, debugger: Debugger,
                       seeds: SeedSpec,
                       levels: Optional[Sequence[str]] = None,
                       store=None,
                       faults: Optional[FaultPlan] = None,
                       max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                       retry_failed: bool = True) -> CampaignResult:
    """Campaign over an explicit seed range: the 1x1 matrix.

    Returns the one cell of
    :func:`~repro.pipeline.matrix.run_matrix_campaign_seeds` over
    ``[compiler] x [debugger]``, so it shares the matrix's resume,
    containment and flush contract: with a
    :class:`~repro.store.CampaignStore` every already-evaluated ``(seed,
    cell)`` pair is loaded back instead of recompiled (the cell is
    ``(family, version, debugger, level set)``) and every fresh pair is
    written through; an exception in generate/compile/trace quarantines
    the seed as a structured failure record (``faults`` threads a
    deterministic :class:`~repro.faults.FaultPlan` in for chaos runs);
    quarantined pairs are retried on resume unless
    ``retry_failed=False``; ``KeyboardInterrupt`` flushes the store
    before propagating.  The cell's failures come back sorted and
    deduplicated (:func:`~repro.faults.merge_failures`).
    """
    from .matrix import run_matrix_campaign_seeds  # matrix imports us
    matrix = run_matrix_campaign_seeds(
        [compiler], [debugger], seeds, levels=levels, store=store,
        faults=faults, max_attempts=max_attempts,
        retry_failed=retry_failed)
    (cell,) = matrix.cells.values()
    return cell


def run_campaign(compiler: Compiler, debugger: Debugger,
                 pool_size: int = 100, seed_base: int = 0,
                 levels: Optional[Sequence[str]] = None,
                 store=None,
                 faults: Optional[FaultPlan] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 retry_failed: bool = True) -> CampaignResult:
    """Generate ``pool_size`` programs and test them all (resumable and
    incremental when ``store`` is given, fault-contained always — see
    :func:`run_campaign_seeds`)."""
    return run_campaign_seeds(
        compiler, debugger, SeedSpec(base=seed_base, count=pool_size),
        levels=levels, store=store, faults=faults,
        max_attempts=max_attempts, retry_failed=retry_failed)


def run_campaign_on_programs(programs: Sequence[Program],
                             compiler: Compiler, debugger: Debugger,
                             levels: Optional[Sequence[str]] = None
                             ) -> CampaignResult:
    """Campaign over a fixed, shared program pool (used by the regression
    study so every version sees identical programs, Section 5.4)."""
    if levels is None:
        levels = [l for l in compiler.levels if l != "O0"]
    result = CampaignResult(family=compiler.family,
                            version=compiler.version,
                            levels=list(levels),
                            pool_size=len(programs))
    for index, program in enumerate(programs):
        violations, fired = test_program_full(program, compiler,
                                              debugger, levels)
        result.programs.append(
            ProgramResult(seed=index, violations=violations, fired=fired))
    return result
