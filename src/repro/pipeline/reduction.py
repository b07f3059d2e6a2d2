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
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..compilers.compiler import Compiler
from ..conjectures.base import Violation
from ..debugger import NATIVE_DEBUGGERS
from ..debugger.base import Debugger
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import (
    FailureRecord, failures_from_dicts, failures_to_dicts,
    merge_failures,
)
from ..fuzz.generator import generate_validated
from ..reduce import Reducer, ReductionResult, ReferenceReducer
from ..triage.triage import triage
from .campaign import CampaignResult, fold_results, missing_field_error
from .units import (
    Cell, Unit, Workload, payload_stats, run_units, seed_positions,
)

#: Artifact schema tag; bump only with a migration path in ``from_dict``.
REDUCE_SCHEMA = "repro-reduce/1"

#: Reduction engines ``run_reduction_campaign`` can drive.
ENGINES = ("fast", "parallel", "reference")


@dataclass
class ReductionRecord:
    """One reduced witness."""

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

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "level": self.level,
            "conjecture": self.conjecture,
            "variable": self.variable,
            "function": self.function,
            "line": self.line,
            "culprit": self.culprit,
            "method": self.method,
            "original_size": self.original_size,
            "reduced_size": self.reduced_size,
            "steps_tried": self.steps_tried,
            "steps_accepted": self.steps_accepted,
            "reduced_source": self.reduced_source,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReductionRecord":
        try:
            return cls(**{name: data[name] for name in (
                "seed", "level", "conjecture", "variable", "function",
                "line", "culprit", "method", "original_size",
                "reduced_size", "steps_tried", "steps_accepted",
                "reduced_source")})
        except KeyError as error:
            raise missing_field_error(REDUCE_SCHEMA, error) from None


@dataclass
class ReductionCampaignResult:
    """Every reduced witness of one campaign (``repro-reduce/1``)."""

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

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "ReductionCampaignResult"
              ) -> "ReductionCampaignResult":
        """Combine two shard results (disjoint witness sets required).

        Identity is the full reduction cell — compiler, debugger *and*
        engine — since records from different engines are not
        comparable.  Records renormalize to seed order (stable, so a
        program's per-level witness order is preserved) and the oracle
        accounting is summed key-wise.
        """
        mine = (self.family, self.version, self.debugger, self.engine)
        theirs = (other.family, other.version, other.debugger,
                  other.engine)
        if mine != theirs:
            raise ValueError(
                f"cannot merge reduction campaigns of different cells: "
                f"{'/'.join(mine)} vs {'/'.join(theirs)}")
        overlap = {record.witness_key() for record in self.records} & \
            {record.witness_key() for record in other.records}
        if overlap:
            raise ValueError(
                f"cannot merge reduction campaigns with overlapping "
                f"witnesses (would double-count): "
                f"{sorted(overlap)[:3]}...")
        stats = dict(self.stats)
        for key, value in other.stats.items():
            stats[key] = stats.get(key, 0) + value
        records = sorted(self.records + other.records,
                         key=lambda record: record.seed)
        return ReductionCampaignResult(
            family=self.family, version=self.version,
            debugger=self.debugger, engine=self.engine,
            pool_size=self.pool_size + other.pool_size,
            records=records, stats=stats,
            failures=merge_failures(self.failures, other.failures))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": REDUCE_SCHEMA,
            "family": self.family,
            "version": self.version,
            "debugger": self.debugger,
            "engine": self.engine,
            "pool_size": self.pool_size,
            "records": [record.to_dict() for record in self.records],
            "stats": dict(sorted(self.stats.items())),
        }
        if self.failures:
            data["failures"] = failures_to_dicts(self.failures)
        return data

    def to_json(self, indent: Optional[int] = None) -> str:
        """The ``repro-reduce/1`` artifact document (field-by-field
        spec in ``docs/ARTIFACTS.md``); render it with ``repro-report``
        or :func:`repro.report.reduce_table`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]
                  ) -> "ReductionCampaignResult":
        schema = data.get("schema")
        if schema != REDUCE_SCHEMA:
            raise ValueError(
                f"not a reduction artifact: schema {schema!r} "
                f"(expected {REDUCE_SCHEMA!r})")
        try:
            return cls(
                family=data["family"], version=data["version"],
                debugger=data["debugger"], engine=data["engine"],
                pool_size=data["pool_size"],
                records=[ReductionRecord.from_dict(r)
                         for r in data["records"]],
                stats=dict(data["stats"]),
                failures=failures_from_dicts(data.get("failures", ())))
        except KeyError as error:
            raise missing_field_error(REDUCE_SCHEMA, error) from None

    @classmethod
    def from_json(cls, text: str) -> "ReductionCampaignResult":
        """Load a stored ``repro-reduce/1`` artifact (see
        ``docs/ARTIFACTS.md``)."""
        return cls.from_dict(json.loads(text))


def merge_reduction_results(results: Iterable[ReductionCampaignResult]
                            ) -> ReductionCampaignResult:
    """Fold any number of shard results into one (at least one needed;
    a single shard is returned unchanged — see
    :func:`~repro.pipeline.campaign.fold_results`)."""
    return fold_results(results, what="reduction results")


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
    :func:`~repro.pipeline.units.seed_positions`, subject ``(level,
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
            # accounting (see payload_stats).
            payload["stats"] = reduction.stats.as_dict()
        return None, {cell: payload}

    def result(outcome, store) -> ReductionCampaignResult:
        payloads = outcome.payloads[cell]
        return ReductionCampaignResult(
            family=campaign.family, version=campaign.version,
            debugger=debugger.name, engine=engine,
            pool_size=campaign.pool_size,
            records=[ReductionRecord.from_dict(p) for p in payloads],
            stats=payload_stats(payloads),
            failures=outcome.failures[cell])

    return Workload(name, [cell], lambda store: witness_units(campaign, limit),
                    evaluate, result,
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
