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
records, and its ``merge`` (associative and order-independent over
disjoint seed ranges) and exact ``to_json``/``from_json`` round trip come
from the one result protocol every keyed-unit artifact shares
(:class:`~repro.pipeline.results.CellResult`). This is what lets the
parallel driver (:mod:`repro.pipeline.parallel`) shard a campaign across
processes and still reproduce the serial aggregates bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..analysis.source_facts import SourceFacts
from ..compilers.compiler import Compiler
from ..conjectures.base import CONJECTURES, Violation, check_all
from ..debugger.base import Debugger
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord
from ..fuzz.seeds import SeedSpec
from ..lang.ast_nodes import Program
from .results import CellResult, field_dict, from_field_dict

#: A unique violation identity: (conjecture, line, variable).
ViolationKey = Tuple[str, int, str]

#: Artifact schema tag; bump only with a migration path in ``from_dict``.
CAMPAIGN_SCHEMA = "repro-campaign/1"


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
                level: [field_dict(v) for v in violations]
                for level, violations in self.violations.items()
            },
        }
        if self.fired:
            data["fired"] = {level: list(ids)
                             for level, ids in self.fired.items()}
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProgramResult":
        return cls(
            seed=data["seed"],
            violations={
                level: [from_field_dict(Violation, v) for v in violations]
                for level, violations in data["violations"].items()
            },
            fired={level: list(ids)
                   for level, ids in data.get("fired", {}).items()},
        )


@dataclass
class CampaignResult(CellResult):
    """Aggregated campaign statistics (the ``repro-campaign/1``
    artifact)."""

    SCHEMA = CAMPAIGN_SCHEMA
    ITEM = ProgramResult

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

    def stored_cells(self, debugger: str = ""):
        # A campaign artifact does not record its debugger.
        yield self.cell(debugger=debugger), self


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
