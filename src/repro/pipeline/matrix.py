"""Compile-once evaluation matrix (the paper's full experiment grid).

The core experiment (Table 1, Figures 1-4) pushes every pool program
through every (compiler family x version x opt level x debugger) cell.
The per-cell reference
(:func:`~repro.pipeline.campaign.run_campaign_on_programs`) redoes the
whole frontend — resolve, lower — for *every* level of every cell, and
recompiles at every level for every debugger.  The matrix driver
restructures the loop around shared state:

* each seed program is generated/validated **once**
  (:class:`~repro.compilers.frontend.FrontendSession`);
* ``SourceFacts`` and the defect-selector program token are computed
  **once** per program;
* the program is resolved and lowered to IR **once**; every
  (family, version, level) cell mutates a cheap private clone
  (:func:`~repro.ir.clone.clone_module`);
* each cell's *compilation* is shared across all debugger cells — the
  debuggers re-trace the same executable instead of forcing a recompile.

Results are **bit-identical** to the per-cell reference: every cell of
a :class:`MatrixCampaignResult` has exactly the ``to_json()`` artifact
the reference produces over the same seeds (pinned by
``tests/test_matrix_fastpaths.py``).  The single-cell campaign
(:func:`~repro.pipeline.campaign.run_campaign`) is this driver's 1x1
case.  Per-seed lowered-module fingerprints ride along so the sharded
driver (:func:`~repro.pipeline.parallel.run_matrix_campaign_parallel`)
can prove its workers lowered the same IR the serial driver would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..compilers.compiler import Compiler, CompilerSpec
from ..compilers.frontend import FrontendSession
from ..conjectures.base import Violation, check_all
from ..debugger.base import Debugger, trace_all
from ..debugger.specs import DEBUGGER_REGISTRY, DebuggerSpec
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord, merge_failures
from ..fuzz.seeds import SeedSpec
from ..metrics.study import (
    CellSamples, StudyResult, compare_traces, reduce_cells,
)
from ..lang.printer import print_program
from ..target.codegen import link
from .campaign import CAMPAIGN_SCHEMA, CampaignResult, ProgramResult
from .results import Artifact
from .units import Cell, Unit, Workload, run_units, stored_fingerprint

#: Artifact schema tag for stored matrix results.
MATRIX_SCHEMA = "repro-matrix/1"

#: One campaign cell: (family, version, debugger name).
MatrixCellKey = Tuple[str, str, str]

CompilerLike = Union[Compiler, CompilerSpec]
DebuggerLike = Union[Debugger, DebuggerSpec, str]

#: The paper's consumer set: every executable is traced in both
#: debuggers, which is exactly what makes compile sharing pay off.
DEFAULT_DEBUGGERS = ("gdb-like", "lldb-like")


#: Process-level toolchain memo: a compiler/debugger spec is rebuilt
#: **once per process**, not once per shard.  Specs are frozen
#: dataclasses, and the rebuilt objects carry no cross-shard state
#: (pinned by the spawn-determinism tests), so sharing them across every
#: shard a worker executes is safe.
_TOOLCHAIN_CACHE: dict = {}


def build_cached(spec) -> object:
    """The built toolchain object for ``spec``, memoized per process."""
    built = _TOOLCHAIN_CACHE.get(spec)
    if built is None:
        built = _TOOLCHAIN_CACHE[spec] = spec.build()
    return built


def _build_compiler(compiler: CompilerLike) -> Compiler:
    if isinstance(compiler, CompilerSpec):
        return build_cached(compiler)
    return compiler


def _build_debugger(debugger: DebuggerLike) -> Debugger:
    if isinstance(debugger, str):
        return DEBUGGER_REGISTRY[debugger]()
    if isinstance(debugger, DebuggerSpec):
        return build_cached(debugger)
    return debugger


def _campaign_levels(compiler: Compiler,
                     levels: Optional[Sequence[str]]) -> List[str]:
    if levels is None:
        return [l for l in compiler.levels if l != "O0"]
    return list(levels)


@dataclass
class MatrixCampaignResult(Artifact):
    """Every (family, version, debugger) cell's campaign, plus the
    determinism fingerprints of the shared frontend pool (the
    ``repro-matrix/1`` artifact)."""

    SCHEMA = MATRIX_SCHEMA

    pool_size: int = 0
    cells: Dict[MatrixCellKey, CampaignResult] = field(
        default_factory=dict)
    #: seed -> counter-normalized lowered-module digest
    fingerprints: Dict[int, str] = field(default_factory=dict)

    def cell(self, family: str, version: str = "trunk",
             debugger: str = "gdb-like") -> CampaignResult:
        return self.cells[(family, version, debugger)]

    def cell_keys(self) -> List[MatrixCellKey]:
        return sorted(self.cells)

    @property
    def failures(self) -> List[FailureRecord]:
        """Every contained failure across the matrix, deduplicated.

        Matrix failures live on the per-cell campaigns (a shared
        frontend fault is replicated into each affected cell with its
        own ``cell`` tag), so the artifact schema is unchanged; this
        view aggregates them for reporting.
        """
        merged: List[FailureRecord] = []
        for key in self.cell_keys():
            merged = merge_failures(merged, self.cells[key].failures)
        return merged

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MatrixCampaignResult"
              ) -> "MatrixCampaignResult":
        """Combine two shard results (disjoint seed ranges).

        Associative and order-independent like
        :meth:`~repro.pipeline.campaign.CampaignResult.merge`; cells are
        merged pairwise and fingerprints are unioned (a seed appearing in
        both shards with different fingerprints means the workers lowered
        divergent IR and is an error).
        """
        if set(self.cells) != set(other.cells):
            raise ValueError(
                f"cannot merge matrix results over different cell sets: "
                f"{sorted(self.cells)} vs {sorted(other.cells)}")
        merged = MatrixCampaignResult(
            pool_size=self.pool_size + other.pool_size)
        for key in self.cells:
            merged.cells[key] = self.cells[key].merge(other.cells[key])
        merged.fingerprints = dict(self.fingerprints)
        for seed, fingerprint in other.fingerprints.items():
            existing = merged.fingerprints.get(seed)
            if existing is not None and existing != fingerprint:
                raise ValueError(
                    f"shards disagree on the lowered module of seed "
                    f"{seed}: {existing[:12]} vs {fingerprint[:12]}")
            merged.fingerprints[seed] = fingerprint
        return merged

    # -- serialization --------------------------------------------------------

    def _fields(self) -> Dict[str, object]:
        return {
            "pool_size": self.pool_size,
            "fingerprints": {str(seed): fp for seed, fp
                             in self.fingerprints.items()},
            "cells": [
                {"family": family, "version": version,
                 "debugger": debugger,
                 "campaign": self.cells[(family, version,
                                         debugger)].to_dict()}
                for family, version, debugger in self.cell_keys()
            ],
        }

    @classmethod
    def _from_fields(cls, data: Dict[str, object]
                     ) -> "MatrixCampaignResult":
        result = cls(pool_size=data["pool_size"])
        result.fingerprints = {int(seed): fp for seed, fp
                               in data["fingerprints"].items()}
        for cell in data["cells"]:
            key = (cell["family"], cell["version"], cell["debugger"])
            result.cells[key] = CampaignResult.from_dict(cell["campaign"])
        return result

    def stored_cells(self, debugger: str = ""):
        """Every campaign cell, under its own debugger."""
        for key in self.cell_keys():
            yield from self.cells[key].stored_cells(debugger=key[2])

    def module_fingerprints(self) -> Dict[int, str]:
        return self.fingerprints

    # -- reporting ------------------------------------------------------------

    def format_summary(self) -> str:
        """Per-cell Table 1 summaries as fixed-width console text."""
        from ..report.tables import format_table1_text
        rows = []
        for family, version, debugger in self.cell_keys():
            campaign = self.cells[(family, version, debugger)]
            rows.append(f"== {family}-{version} x {debugger} ==")
            rows.append(format_table1_text(campaign))
            rows.append("")
        return "\n".join(rows).rstrip()


def record_session(store, unit: Unit, session: FrontendSession) -> None:
    """The store writes that go with a seed unit's payloads: the
    printed program and its lowered-module fingerprint."""
    store.add_program(unit.seed, print_program(session.program))
    store.record_module_fingerprint(unit.seed, session.fingerprint)


def matrix_workload(compilers: Sequence[CompilerLike],
                    debuggers: Sequence[DebuggerLike], seeds: SeedSpec,
                    levels: Optional[Sequence[str]] = None) -> Workload:
    """The compile-once matrix as :func:`~repro.pipeline.units.run_units`
    work: one unit per seed, one cell per (compiler, debugger) pair.

    Failures are contained under the ``"matrix"`` label and filed under
    each live cell's ``family-version/debugger`` name — fault decisions
    are keyed by ``(stage, seed)``, never by cell, so a 1x1 run of any
    cell under the same plan produces the same records for it.
    """
    built_debuggers = [_build_debugger(d) for d in debuggers]
    #: per compiler: (compiler, levels, [(cell, debugger)])
    rows: List[Tuple[Compiler, List[str], List[Tuple[Cell, Debugger]]]] = []
    keys = set()
    for compiler in map(_build_compiler, compilers):
        run_levels = _campaign_levels(compiler, levels)
        row = []
        for debugger in built_debuggers:
            key = (compiler.family, compiler.version, debugger.name)
            if key in keys:
                raise ValueError(
                    f"duplicate matrix cell {key}: compilers and "
                    f"debuggers must be unique per (family, version, "
                    f"debugger)")
            keys.add(key)
            row.append((Cell(
                f"{compiler.family}-{compiler.version}/{debugger.name}",
                CAMPAIGN_SCHEMA, compiler.family, compiler.version,
                tuple(run_levels), debugger=debugger.name), debugger))
        rows.append((compiler, run_levels, row))
    cells = [cell for _c, _l, row in rows for cell, _d in row]
    fingerprints: Dict[int, str] = {}

    def evaluate(probe, unit, live):
        probe("generate")
        session = FrontendSession(unit.seed)
        facts = session.facts
        token = session.program_token
        payloads: Dict[Cell, Dict[str, object]] = {}
        for compiler, run_levels, row in rows:
            missing = [(cell, debugger) for cell, debugger in row
                       if cell in live]
            if not missing:
                continue
            per_debugger: List[Dict[str, List[Violation]]] = [
                {} for _ in missing]
            fired: Dict[str, List[str]] = {}
            for level in run_levels:
                # Compile once per level and execute once; every
                # debugger cell observes the same stops.
                probe("compile")
                compilation = compiler.compile_ir(
                    session.ir_module(), level, program_token=token)
                fired_ids = compilation.fired_defects()
                if fired_ids:
                    fired[level] = fired_ids
                probe("trace")
                traces = trace_all(compilation.exe,
                                   [debugger for _cell, debugger in missing])
                for violations, trace in zip(per_debugger, traces):
                    violations[level] = check_all(facts, trace)
            for (cell, _debugger), violations in zip(missing,
                                                     per_debugger):
                payloads[cell] = ProgramResult(
                    seed=unit.seed, violations=violations,
                    fired=fired).to_dict()
        fingerprints[unit.seed] = session.fingerprint
        return session, payloads

    def replayed(store, unit) -> None:
        # Every cell already evaluated this seed: no frontend, no
        # compiles.  The fingerprint is served from the store when a
        # previous matrix run recorded it; cells filled by plain
        # campaigns need one frontend pass (still zero compiles).
        fingerprints[unit.seed] = stored_fingerprint(store, unit.seed)

    def result(outcome, store) -> MatrixCampaignResult:
        return MatrixCampaignResult(
            pool_size=seeds.count, fingerprints=fingerprints,
            cells={(cell.family, cell.version, cell.debugger):
                   CampaignResult.from_rows(
                       cell, outcome.payloads[cell], outcome.failures[cell],
                       seeds.count)
                   for cell in cells})

    return Workload(
        "matrix", cells, lambda store: map(Unit, seeds.seeds()), evaluate,
        result, extra_writes=record_session, replayed=replayed)


def run_matrix_campaign_seeds(
        compilers: Sequence[CompilerLike],
        debuggers: Sequence[DebuggerLike],
        seeds: SeedSpec,
        levels: Optional[Sequence[str]] = None,
        store=None,
        faults: Optional[FaultPlan] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_failed: bool = True) -> MatrixCampaignResult:
    """Compile-once campaign over an explicit seed range (one shard).

    For each seed: one frontend session; per compiler, one backend run
    per level over a private clone of the shared lowering; per debugger,
    one trace of each already-linked executable.

    With a :class:`~repro.store.CampaignStore`, each matrix cell resumes
    independently: cells are the same ``(family, version, debugger,
    level set)`` keys plain campaigns use, so a matrix run reuses — and
    feeds — single-cell campaign results.  A seed whose cells all hit
    skips the frontend and every compile; a partially stored seed
    recompiles each level once and re-traces only the debuggers whose
    cells are missing.

    Evaluation is fault-contained by :func:`~repro.pipeline.units.run_units`:
    a seed that keeps failing is quarantined instead of aborting the
    matrix, with the shared-frontend failure replicated into every
    still-unevaluated cell (see :func:`matrix_workload`), and
    ``KeyboardInterrupt`` flushes the store before propagating.
    """
    return run_units(
        matrix_workload(compilers, debuggers, seeds, levels), store=store,
        faults=faults, max_attempts=max_attempts,
        retry_failed=retry_failed)


def run_matrix_campaign(
        compilers: Optional[Sequence[CompilerLike]] = None,
        debuggers: Optional[Sequence[DebuggerLike]] = None,
        pool_size: int = 100, seed_base: int = 0,
        levels: Optional[Sequence[str]] = None,
        families: Optional[Sequence[str]] = None,
        version: str = "trunk", store=None,
        faults: Optional[FaultPlan] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_failed: bool = True) -> MatrixCampaignResult:
    """The full evaluation matrix over a generated seed range.

    ``compilers`` defaults to the trunk compiler of every family in
    ``families`` (default: gcc and clang); ``debuggers`` defaults to
    both consumers.  Every cell is bit-identical to the 1x1
    :func:`~repro.pipeline.campaign.run_campaign` over it.
    ``store`` makes the run resumable per cell (see
    :func:`run_matrix_campaign_seeds`); ``faults`` threads a chaos
    plan into the containment boundary.
    """
    if compilers is None:
        families = tuple(families) if families else ("gcc", "clang")
        compilers = [Compiler(family, version) for family in families]
    if debuggers is None:
        debuggers = DEFAULT_DEBUGGERS
    return run_matrix_campaign_seeds(
        compilers, debuggers,
        SeedSpec(base=seed_base, count=pool_size), levels=levels,
        store=store, faults=faults, max_attempts=max_attempts,
        retry_failed=retry_failed)


# -- the metrics study over the shared pool -----------------------------------


def run_matrix_study(family: str, versions: Sequence[str],
                     levels: Sequence[str], debugger: DebuggerLike,
                     pool_size: int, seed_base: int = 0) -> StudyResult:
    """The Figure 1 study over the compile-once pool.

    The per-cell driver (:func:`~repro.metrics.study.run_study_seeds`)
    recompiles and re-traces the ``-O0`` baseline for every compiler
    version; here one baseline trace per program is shared across all
    (version, level) cells — legitimately, because no pass pipeline runs
    and no defect hooks are consulted at ``-O0``.  Floats come out
    bit-identical: the same traces reach the same left-to-right
    reduction.
    """
    built_debugger = _build_debugger(debugger)
    sessions = [FrontendSession(seed)
                for seed in SeedSpec(seed_base, pool_size).seeds()]
    baselines = [built_debugger.trace(link(session.ir_module()))
                 for session in sessions]
    cells: CellSamples = {}
    for version in versions:
        compiler = Compiler(family, version)
        for level in levels:
            cells[(version, level)] = [
                compare_traces(
                    baseline,
                    built_debugger.trace(
                        compiler.compile_ir(
                            session.ir_module(), level,
                            program_token=session.program_token).exe))
                for session, baseline in zip(sessions, baselines)
            ]
    return reduce_cells(cells, pool_size=pool_size)
