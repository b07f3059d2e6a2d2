"""One keyed-unit loop behind every resumable campaign driver.

The matrix, verify, bisection and reduction drivers all walk a stream
of *units* — a seed, or one witness of a seed — over one or more
*cells*, the store's run identities, under one contract:

* a unit a cell already evaluated is replayed from the
  :class:`~repro.store.CampaignStore`, with the recovered failure
  record its evaluation left, if any; with ``retry_failed=False`` a
  stored quarantine is carried forward instead of retried;
* the remaining (live) cells are computed together, once, under one
  :class:`~repro.faults.boundary.FailureBoundary`, and a contained
  failure is filed under every live cell (``with_cell``);
* a quarantine is persisted so the next run retries it; a payload is
  written through (``store_write``) and replaces the cell's quarantine
  with its recovered record, or clears it;
* ``KeyboardInterrupt`` checkpoints the store before propagating, and
  each cell's failures come back sorted and deduplicated.

:func:`run_units` is that loop.  A driver describes its work as a
:class:`Workload` and the loop never asks which driver it serves.  The
sharded drivers run the same loop per shard
(:class:`~repro.pipeline.parallel.UnitShard`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..compilers.frontend import FrontendSession
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS, FailureBoundary
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord, merge_failures

Payload = Dict[str, object]


@dataclass(frozen=True)
class Cell:
    """One run identity the loop resumes independently (a store
    ``runs`` row); ``name`` is the tag its failure records carry."""

    name: str
    schema: str
    family: str
    version: str
    levels: Tuple[str, ...] = ()
    debugger: str = ""
    engine: str = ""


@dataclass(frozen=True)
class Unit:
    """One unit of work, stored per cell under ``(run, seed, key)``."""

    seed: int
    #: Failure-record item: the sub-seed identity ("" for a whole seed).
    item: str = ""
    key: str = ""
    #: Export order of the stored row (``None``: the seed).
    position: Optional[int] = None
    #: What the driver evaluates besides the seed (e.g. a witness).
    subject: object = None


@dataclass
class UnitOutcome:
    """What one loop run hands to its workload's ``result``."""

    #: cell -> payloads in unit order (live and replayed alike)
    payloads: Dict[Cell, List[Payload]]
    #: cell -> contained failures, sorted and deduplicated
    failures: Dict[Cell, List[FailureRecord]]


def _nothing(*args) -> None:
    return None


@dataclass
class Workload:
    """One driver's side of :func:`run_units`."""

    #: The containment boundary's cell label.
    label: str
    cells: Sequence[Cell]
    #: ``units(store)``: the units, in evaluation (and artifact) order.
    units: Callable[[object], Iterable[Unit]]
    #: ``evaluate(probe, unit, live) -> (shared, {cell: payload})`` for
    #: the live cells, under containment; ``shared`` goes to the hooks.
    evaluate: Callable[..., Tuple[object, Dict[Cell, Payload]]]
    #: ``result(outcome, store)``: the typed result, built from each
    #: cell's payloads and failures by ``CellResult.from_rows``.
    result: Callable[[UnitOutcome, object], object]
    #: Hook ``extra_writes(store, unit, shared)``: writes that go with
    #: each cell's payload, inside its guarded store write.
    extra_writes: Callable[..., None] = _nothing
    #: Hook ``replayed(store, unit)``: no cell was live and at least one
    #: replayed ``unit``.
    replayed: Callable[..., None] = _nothing
    #: Attributes merged into every cell's run row when it is opened.
    run_attrs: Optional[Dict[str, object]] = None


def stored_fingerprint(store, seed: int, session=None) -> str:
    """The lowered-module digest ``store`` records for ``seed``; when
    none is recorded yet, lower the program (through ``session``, or a
    fresh :class:`~repro.compilers.frontend.FrontendSession`) and
    record it, so later runs and ingests find it."""
    fingerprint = store.module_fingerprint(seed)
    if fingerprint is None:
        if session is None:
            session = FrontendSession(seed)
        fingerprint = session.fingerprint
        store.record_module_fingerprint(seed, fingerprint)
    return fingerprint


def persist_failure(store, run: int, record: FailureRecord) -> None:
    """Best-effort write of a quarantine record to the store so resume
    knows which units to retry.  Store errors are swallowed on purpose:
    the record is already in the artifact, and a store too broken to
    record failures must not break graceful degradation."""
    try:
        store.put_failure(run, record.seed, record.item,
                          record.to_dict())
    except Exception:
        return


def stored_failures(store, run: int
                    ) -> Dict[Tuple[int, str], FailureRecord]:
    """``(seed, item) -> record`` for every failure record previous
    runs left in ``run`` (best-effort, like :func:`persist_failure`)."""
    try:
        payloads = store.failures_for(run)
    except Exception:
        return {}
    records = {}
    for payload in payloads:
        try:
            record = FailureRecord.from_dict(payload)
        except ValueError:
            continue
        records[(record.seed, record.item)] = record
    return records


def run_units(workload: Workload, store=None,
              faults: Optional[FaultPlan] = None,
              max_attempts: int = DEFAULT_MAX_ATTEMPTS,
              retry_failed: bool = True, crash_base: int = 0,
              escalate_crashes: bool = False):
    """Run ``workload`` through the resume/contain/persist/flush loop
    (see the module docstring) and return its typed result.

    ``crash_base`` and ``escalate_crashes`` configure the boundary for
    a supervised worker shard; serial drivers keep the defaults, which
    simulate injected worker deaths in place.
    """
    cells = list(workload.cells)
    runs: Dict[Cell, int] = {}
    priors: Dict[Cell, Dict[Tuple[int, str], FailureRecord]] = {}
    if store is not None:
        for cell in cells:
            runs[cell] = store.run_id(
                cell.schema, cell.family, cell.version, cell.levels,
                debugger=cell.debugger, engine=cell.engine,
                attrs=workload.run_attrs)
            priors[cell] = stored_failures(store, runs[cell])
    outcome = UnitOutcome({cell: [] for cell in cells},
                          {cell: [] for cell in cells})
    boundary = FailureBoundary(workload.label, faults=faults,
                               max_attempts=max_attempts,
                               crash_base=crash_base,
                               escalate_crashes=escalate_crashes)
    try:
        for unit in workload.units(store):
            live: List[Cell] = []
            replayed = False
            for cell in cells:
                if store is not None:
                    payload = store.get_result(runs[cell], unit.seed,
                                               unit.key)
                    prior = priors[cell].get((unit.seed, unit.item))
                    if payload is not None:
                        outcome.payloads[cell].append(payload)
                        if prior is not None:
                            # The retries the stored payload took.
                            outcome.failures[cell].append(prior)
                        replayed = True
                        continue
                    if not retry_failed and prior is not None:
                        outcome.failures[cell].append(prior)
                        continue
                live.append(cell)
            if not live:
                if replayed:
                    workload.replayed(store, unit)
                continue

            value, record = boundary.evaluate(
                unit.seed,
                lambda probe: workload.evaluate(probe, unit, live),
                item=unit.item)
            if record is not None:
                for cell in live:
                    outcome.failures[cell].append(
                        record.with_cell(cell.name))
            if value is None:
                if store is not None:
                    for cell in live:
                        persist_failure(store, runs[cell],
                                        record.with_cell(cell.name))
                continue
            shared, payloads = value
            for cell in live:
                outcome.payloads[cell].append(payloads[cell])
                if store is None:
                    continue

                def write(cell=cell):
                    workload.extra_writes(store, unit, shared)
                    store.put_result(runs[cell], unit.seed, payloads[cell],
                                     key=unit.key, position=unit.position)
                before = len(boundary.failures)
                if boundary.store_write(unit.seed, write, item=unit.item,
                                        cell=cell.name):
                    if record is None:
                        store.clear_failure(runs[cell], unit.seed,
                                            unit.item)
                    else:
                        persist_failure(store, runs[cell],
                                        record.with_cell(cell.name))
                # store_write records (recovered or quarantined
                # store-stage failures) belong to this cell.
                outcome.failures[cell].extend(boundary.failures[before:])
    except KeyboardInterrupt:
        if store is not None:
            store.checkpoint()
        raise
    for cell in cells:
        outcome.failures[cell] = merge_failures(outcome.failures[cell], ())
    return workload.result(outcome, store)
