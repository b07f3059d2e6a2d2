"""Verify campaigns: the static analyzer at campaign scale.

``run_verify_campaign`` is the static twin of the dynamic Table 1
driver: generate N programs, compile each at every optimization level,
run :func:`repro.staticcheck.verify_compilation` over the linked
executable + lowered module, and record the findings next to the
compile-time fired-defect ground truth.  No debugger, no VM execution —
one compile per cell is the entire cost, which is what makes the
ROADMAP's "verify millions of builds" axis feasible.

Results are pure, mergeable values exactly like
:class:`~repro.pipeline.campaign.CampaignResult` (both are
:class:`~repro.pipeline.results.CellResult` types): shard merges are
associative over disjoint seed ranges, serialization round-trips via
the ``repro-verify/1`` artifact (``docs/ARTIFACTS.md``), and every
driver here runs :func:`verify_workload` through the pipeline's one
unit loop (:func:`~repro.pipeline.units.run_units`) — serially, or in
:class:`~repro.pipeline.parallel.UnitShard` slices across spawn workers
— so serial, sharded and resumed runs are bit-identical.  Each program
additionally records its lowered ``module_fingerprint`` so a verify
artifact can be joined against a matrix/campaign artifact for the same
seeds with confidence that both saw the same programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..compilers.compiler import Compiler
from ..compilers.frontend import FrontendSession
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord
from ..fuzz.seeds import SeedSpec
from ..pipeline.matrix import CompilerLike, _build_compiler, record_session
from ..pipeline.parallel import (
    RetryPolicy, as_compiler_spec, map_unit_shards,
)
from ..pipeline.results import CellResult, fold_results
from ..pipeline.units import Cell, Unit, Workload, run_units
from .findings import Finding
from .verifier import verify_compilation

#: Artifact schema tag; bump only with a migration path in ``from_dict``.
VERIFY_SCHEMA = "repro-verify/1"


@dataclass
class VerifyProgramResult:
    """Static findings for one program across every compiled level."""

    seed: int
    #: ``module_fingerprint`` of the pre-optimization lowered module —
    #: the join key against ``repro-matrix/1`` / reduction artifacts.
    fingerprint: str = ""
    findings: Dict[str, List[Finding]] = field(default_factory=dict)
    #: level -> ids of injected defects that fired during that compile
    #: (same ground truth the dynamic campaign records).
    fired: Dict[str, List[str]] = field(default_factory=dict)

    def finding_count(self, level: Optional[str] = None) -> int:
        if level is not None:
            return len(self.findings.get(level, ()))
        return sum(len(found) for found in self.findings.values())

    def points(self, level: str) -> set:
        """Producer hook points the findings at ``level`` indict."""
        return {f.point() for f in self.findings.get(level, ())} - {""}

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "findings": {
                level: [f.to_dict() for f in found]
                for level, found in self.findings.items()
            },
        }
        if self.fired:
            data["fired"] = {level: list(ids)
                             for level, ids in self.fired.items()}
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "VerifyProgramResult":
        return cls(
            seed=data["seed"],
            fingerprint=data.get("fingerprint", ""),
            findings={
                level: [Finding.from_dict(f) for f in found]
                for level, found in data["findings"].items()
            },
            fired={level: list(ids)
                   for level, ids in data.get("fired", {}).items()},
        )


@dataclass
class VerifyCampaignResult(CellResult):
    """Aggregated static-verification campaign (the ``repro-verify/1``
    artifact)."""

    SCHEMA = VERIFY_SCHEMA
    ITEM = VerifyProgramResult

    family: str
    version: str
    levels: List[str]
    pool_size: int = 0
    programs: List[VerifyProgramResult] = field(default_factory=list)
    #: Contained per-seed failures (see repro.faults); omitted from the
    #: serialized artifact when empty for byte-compatibility.
    failures: List[FailureRecord] = field(default_factory=list)

    def finding_count(self, level: Optional[str] = None) -> int:
        return sum(p.finding_count(level) for p in self.programs)

    def check_counts(self) -> Dict[str, Dict[str, int]]:
        """{check id: {level: finding count}} over the whole campaign."""
        out: Dict[str, Dict[str, int]] = {}
        for program in self.programs:
            for level, found in program.findings.items():
                for finding in found:
                    per_level = out.setdefault(finding.check, {})
                    per_level[level] = per_level.get(level, 0) + 1
        return out

    def clean(self) -> bool:
        """True when no compile produced any finding."""
        return self.finding_count() == 0

    def module_fingerprints(self) -> Dict[int, str]:
        return {program.seed: program.fingerprint
                for program in self.programs if program.fingerprint}


# -- drivers ------------------------------------------------------------------


def verify_workload(compiler: CompilerLike, seeds: SeedSpec,
                    levels: Optional[Sequence[str]] = None) -> Workload:
    """The verify campaign as :func:`~repro.pipeline.units.run_units`
    work: one unit per seed, one ``family-version`` cell."""
    compiler = _build_compiler(compiler)
    # Unlike the dynamic campaign, O0 stays in by default: a static
    # check of the unoptimized build is free and anchors the matrix.
    levels = list(compiler.levels if levels is None else levels)
    name = f"{compiler.family}-{compiler.version}"
    cell = Cell(name, VERIFY_SCHEMA, compiler.family, compiler.version,
                tuple(levels))

    def evaluate(probe, unit, live):
        probe("generate")
        session = FrontendSession(unit.seed)
        program_result = VerifyProgramResult(
            seed=unit.seed, fingerprint=session.fingerprint)
        for level in levels:
            probe("compile")
            compilation = compiler.compile_ir(
                session.ir_module(), level,
                program_token=session.program_token)
            probe("verify")
            program_result.findings[level] = verify_compilation(
                compilation)
            fired = compilation.fired_defects()
            if fired:
                program_result.fired[level] = fired
        return session, {cell: program_result.to_dict()}

    return Workload(name, [cell], lambda store: map(Unit, seeds.seeds()),
                    evaluate,
                    lambda outcome, store: VerifyCampaignResult.from_rows(
                        cell, outcome.payloads[cell], outcome.failures[cell],
                        seeds.count),
                    extra_writes=record_session)


def run_verify_campaign_seeds(compiler: CompilerLike, seeds: SeedSpec,
                              levels: Optional[Sequence[str]] = None,
                              store=None,
                              faults: Optional[FaultPlan] = None,
                              max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                              retry_failed: bool = True
                              ) -> VerifyCampaignResult:
    """Verify campaign over an explicit seed range (one shard's worth).

    With a :class:`~repro.store.CampaignStore`, already-verified
    ``(seed, cell)`` pairs are loaded back instead of recompiled, and
    fresh ones are written through; evaluation is fault-contained
    (quarantined seeds become failure records instead of aborting;
    ``KeyboardInterrupt`` flushes the store first) — the one
    :func:`~repro.pipeline.units.run_units` loop every driver shares.
    """
    return run_units(verify_workload(compiler, seeds, levels), store=store,
                     faults=faults, max_attempts=max_attempts,
                     retry_failed=retry_failed)


def run_verify_campaign(compiler: Compiler, pool_size: int = 100,
                        seed_base: int = 0,
                        levels: Optional[Sequence[str]] = None,
                        store=None,
                        faults: Optional[FaultPlan] = None,
                        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                        retry_failed: bool = True
                        ) -> VerifyCampaignResult:
    """Generate ``pool_size`` programs and statically verify each at
    every level — the serial driver behind ``repro-verify``
    (resumable when ``store`` is given, fault-contained always)."""
    return run_verify_campaign_seeds(
        compiler, SeedSpec(base=seed_base, count=pool_size),
        levels=levels, store=store, faults=faults,
        max_attempts=max_attempts, retry_failed=retry_failed)


def run_verify_campaign_parallel(compiler, pool_size: int = 100,
                                 seed_base: int = 0,
                                 levels: Optional[Sequence[str]] = None,
                                 workers: Optional[int] = None,
                                 start_method: str = "spawn",
                                 store_path: Optional[str] = None,
                                 faults: Optional[FaultPlan] = None,
                                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                                 retry_failed: bool = True,
                                 retry: Optional[RetryPolicy] = None,
                                 sleeper=None
                                 ) -> VerifyCampaignResult:
    """Sharded, multi-process verify campaign.

    Bit-identical to :func:`run_verify_campaign` for the same
    arguments — including under a ``faults`` chaos plan, whose worker
    deaths are supervised with bounded respawns and an in-driver rescue
    by the same :func:`~repro.pipeline.parallel.map_unit_shards` path
    as every other sharded driver.
    ``workers <= 1`` runs the shards in-process.  ``store_path`` names
    a shared store file every worker writes through (and resumes from)
    with WAL-mode concurrent access.
    """
    compiler_spec = as_compiler_spec(compiler)
    spec = SeedSpec(base=seed_base, count=pool_size)
    return fold_results(map_unit_shards(
        verify_workload,
        lambda n: [(compiler_spec, seed_shard, levels)
                   for seed_shard in spec.shard(n)],
        workers, start_method, store_path=store_path, faults=faults,
        max_attempts=max_attempts, retry_failed=retry_failed,
        retry=retry, sleeper=sleeper))
