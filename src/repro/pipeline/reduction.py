"""Campaign-scale reduction: shrink every violation of a stored campaign.

The paper's reporting workflow ends with a minimized reproducer per
bug report; :func:`run_reduction_campaign` industrializes that step: it
takes a stored ``repro-campaign/1`` artifact (or a live
:class:`~repro.pipeline.campaign.CampaignResult`), regenerates each
violating program from its seed, optionally triages the culprit
optimization, runs the fast reduction engine on every distinct
``(conjecture, variable)`` witness, and collects the outcomes in a
:class:`ReductionCampaignResult` — the ``repro-reduce/1`` artifact,
renderable by ``repro-report`` and the ``repro-reduce`` console script
(:mod:`repro.reduce.cli`).

Witness selection (:func:`iter_witnesses`) is deterministic: programs
in seed order; within a program the campaign's level order; within a
level the checker's violation order; one witness per distinct
``(conjecture, variable)`` — the reduction oracle's violation identity,
since line numbers shift while shrinking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..compilers.compiler import Compiler
from ..conjectures.base import Violation
from ..debugger import NATIVE_DEBUGGERS
from ..debugger.base import Debugger
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord
from ..fuzz.generator import generate_validated
from ..reduce import Reducer, ReductionResult, ReferenceReducer
from ..triage.triage import triage
from .campaign import CampaignResult
from .results import FieldRecord, WitnessResult, seed_positions
from .units import Cell, Unit, Workload, run_units

#: Artifact schema tag; bump only with a migration path in ``from_dict``.
REDUCE_SCHEMA = "repro-reduce/1"

#: Reduction engines ``run_reduction_campaign`` can drive.
ENGINES = ("fast", "parallel", "reference")


@dataclass
class ReductionRecord(FieldRecord):
    """One reduced witness."""

    SCHEMA = REDUCE_SCHEMA

    seed: int
    level: str
    conjecture: str
    variable: str
    function: str
    line: int
    culprit: Optional[str]
    method: str                    # "flags" | "bisect" | "none"
    original_size: int
    reduced_size: int
    steps_tried: int
    steps_accepted: int
    reduced_source: str

    @property
    def reduction_ratio(self) -> float:
        if self.original_size == 0:
            return 0.0
        return 1.0 - self.reduced_size / self.original_size

    def witness_key(self) -> Tuple[int, str, str, str]:
        """The violation identity reduction preserves — what the store
        keys witnesses by, and what shard merges must keep disjoint."""
        return (self.seed, self.level, self.conjecture, self.variable)


@dataclass
class ReductionCampaignResult(WitnessResult):
    """Every reduced witness of one campaign (``repro-reduce/1``).

    Identity is the full reduction cell — compiler, debugger *and*
    engine — since records from different engines are not comparable.
    """

    SCHEMA = REDUCE_SCHEMA
    IDENTITY = ("family", "version", "debugger", "engine")
    ITEM = ReductionRecord

    family: str
    version: str
    debugger: str
    engine: str = "fast"
    pool_size: int = 0
    records: List[ReductionRecord] = field(default_factory=list)
    #: aggregate oracle accounting (summed over witnesses)
    stats: Dict[str, int] = field(default_factory=dict)
    #: Contained per-witness failures (see repro.faults); omitted from
    #: the serialized artifact when empty for byte-compatibility.
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def witnesses(self) -> int:
        return len(self.records)

    def total(self, attr: str) -> int:
        return sum(getattr(record, attr) for record in self.records)

    def rows(self, store):
        positions = seed_positions(record.seed for record in self.records)
        for record, position in zip(self.records, positions):
            yield (record.seed, witness_item(record.level,
                                             record.conjecture,
                                             record.variable),
                   position, record.to_dict())


def iter_witnesses(campaign: CampaignResult
                   ) -> Iterator[Tuple[int, str, Violation]]:
    """Deterministic ``(seed, level, violation)`` witnesses: one per
    distinct ``(conjecture, variable)`` per program, at the first level
    (campaign order) the pair appears."""
    for program_result in campaign.programs:
        seen = set()
        for level in campaign.levels:
            for violation in program_result.violations.get(level, ()):
                identity = (violation.conjecture, violation.variable)
                if identity in seen:
                    continue
                seen.add(identity)
                yield program_result.seed, level, violation


def witness_item(level: str, conjecture: str, variable: str) -> str:
    """A witness's unit identity, ``level/conjecture/variable``: its
    failure-record ``item`` (and its reduction row key)."""
    return f"{level}/{conjecture}/{variable}"


def witness_units(campaign: CampaignResult, limit: Optional[int] = None
                  ) -> Iterator[Unit]:
    """One unit per witness, in :func:`iter_witnesses` order and at
    most ``limit``: item and key :func:`witness_item`, position from
    :func:`~repro.pipeline.results.seed_positions`, subject ``(level,
    violation)``."""
    witnesses = list(itertools.islice(iter_witnesses(campaign), limit))
    positions = seed_positions(seed for seed, _level, _v in witnesses)
    for (seed, level, violation), position in zip(witnesses, positions):
        item = witness_item(level, violation.conjecture, violation.variable)
        yield Unit(seed, item=item, key=item, position=position,
                   subject=(level, violation))


def reduction_workload(campaign: CampaignResult, engine: str,
                       debugger: Optional[Debugger], max_steps: int,
                       with_triage: bool, workers: Optional[int],
                       limit: Optional[int]) -> Workload:
    """Reduction as :func:`~repro.pipeline.units.run_units` work: one
    unit per witness (:func:`iter_witnesses` order, at most ``limit``),
    keyed by :func:`witness_item`, in one ``family-version/debugger``
    cell."""
    if engine not in ENGINES:
        raise ValueError(f"unknown reduction engine {engine!r}; "
                         f"known: {', '.join(ENGINES)}")
    compiler = Compiler(campaign.family, campaign.version)
    if debugger is None:
        debugger = NATIVE_DEBUGGERS[campaign.family]()
    name = f"{campaign.family}-{campaign.version}/{debugger.name}"
    cell = Cell(name, REDUCE_SCHEMA, campaign.family, campaign.version,
                debugger=debugger.name, engine=engine)

    def evaluate(probe, unit, live):
        level, violation = unit.subject
        probe("generate")
        program = generate_validated(unit.seed)
        probe("reduce")
        culprit = None
        method = "none"
        if with_triage:
            triaged = triage(compiler, program, level, debugger,
                             violation)
            culprit = triaged.culprit
            method = triaged.method
        reduction = _reduce_one(
            compiler, level, debugger, violation, culprit, engine,
            max_steps, workers, program)
        payload = ReductionRecord(
            seed=unit.seed, level=level,
            conjecture=violation.conjecture,
            variable=violation.variable, function=violation.function,
            line=violation.line, culprit=culprit, method=method,
            original_size=reduction.original_size,
            reduced_size=reduction.reduced_size,
            steps_tried=reduction.steps_tried,
            steps_accepted=reduction.steps_accepted,
            reduced_source=reduction.source).to_dict()
        if reduction.stats is not None:
            # Each witness carries its own slice of the oracle
            # accounting (summed by ``from_rows``).
            payload["stats"] = reduction.stats.as_dict()
        return None, {cell: payload}

    return Workload(name, [cell], lambda store: witness_units(campaign, limit),
                    evaluate,
                    lambda outcome, store: ReductionCampaignResult.from_rows(
                        cell, outcome.payloads[cell], outcome.failures[cell],
                        campaign.pool_size),
                    run_attrs={"pool_size": campaign.pool_size})


def run_reduction_campaign(campaign: CampaignResult,
                           engine: str = "fast",
                           debugger: Optional[Debugger] = None,
                           max_steps: int = 2000,
                           with_triage: bool = True,
                           workers: Optional[int] = None,
                           limit: Optional[int] = None,
                           store=None,
                           faults: Optional[FaultPlan] = None,
                           max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                           retry_failed: bool = True
                           ) -> ReductionCampaignResult:
    """Reduce every witness of ``campaign`` and aggregate the outcomes.

    ``engine`` selects ``fast`` (serial engine), ``parallel``
    (speculative workers — ``workers`` defaults to the CPU count), or
    ``reference`` (the seed-faithful baseline; for differential runs).
    ``with_triage=False`` skips culprit identification (reductions then
    preserve only the violation, not the responsible optimization).
    ``limit`` bounds how many witnesses are reduced.

    The campaign must have been produced over generator seeds (as
    ``run_campaign``/``repro-campaign`` do) — programs are regenerated
    with :func:`~repro.fuzz.generator.generate_validated`.

    With a :class:`~repro.store.CampaignStore`, every finished witness
    (triage + reduction, with its share of the oracle accounting) is
    written through and replayed on the next run, so an interrupted
    reduction campaign resumes at the first unreduced witness.

    Each witness is fault-contained independently (failure records
    carry the witness as ``item``, so one pathological witness never
    takes down the rest of its seed); ``KeyboardInterrupt`` flushes
    the store before propagating.
    """
    return run_units(
        reduction_workload(campaign, engine, debugger, max_steps,
                           with_triage, workers, limit),
        store=store, faults=faults, max_attempts=max_attempts,
        retry_failed=retry_failed)


def _reduce_one(compiler, level, debugger, violation, culprit, engine,
                max_steps, workers, program) -> ReductionResult:
    if engine == "reference":
        reducer = ReferenceReducer(compiler, level, debugger, violation,
                                   culprit_flag=culprit,
                                   max_steps=max_steps)
        return reducer.reduce(program)
    reducer = Reducer(compiler, level, debugger, violation,
                      culprit_flag=culprit, max_steps=max_steps)
    if engine == "parallel":
        return reducer.reduce_parallel(program, workers=workers)
    return reducer.reduce(program)
