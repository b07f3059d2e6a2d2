"""Deadline-supervised worker scheduling over the bounded window.

The scheduler owns three kinds of threads:

* one **intake** thread pulling admitted jobs off the bounded job
  backlog and expanding each into small :class:`WorkUnit` seed ranges,
  pushed through the bounded unit window with *blocking* puts — a job
  of any size streams through a fixed-size window;
* N **worker** threads pulling units off the window and evaluating them
  with :func:`~repro.pipeline.campaign.run_campaign_seeds` (the 1x1
  compile-once matrix: one lowering per seed, cloned per level) against
  a per-thread store connection — every finished seed is written through
  (and replayed on retry/restart) by the store, so the scheduler itself
  holds no results;
* one **monitor** thread watching per-worker heartbeats and per-job
  deadlines.  A worker whose heartbeat goes stale past
  ``stall_timeout`` is *abandoned*: its slot's generation is bumped (a
  late completion from the stuck thread no longer counts — its store
  writes remain benign because ``put_result`` is idempotent), its unit
  is requeued at ``attempt + 1`` after the
  :class:`~repro.pipeline.parallel.RetryPolicy` backoff, and a fresh
  thread takes the slot.  A unit that exhausts the retry budget
  quarantines its seeds as ``worker``-stage failure records instead of
  wedging the job forever; a job past its deadline is expired and its
  remaining units dropped.

Everything time-like (``clock``, ``sleeper``) and the unit evaluator
are injectable, so the chaos tests drive stalls and deadlines
deterministically without real waiting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..compilers.compiler import CompilerSpec
from ..debugger.specs import DebuggerSpec
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord
from ..fuzz.seeds import SeedSpec
from ..pipeline.campaign import CAMPAIGN_SCHEMA, run_campaign_seeds
from ..pipeline.parallel import RetryPolicy
from .jobs import JobSpec
from .window import AdmissionQueue, ServiceOverloaded

#: Seeds per work unit: small enough that heartbeats at unit
#: granularity detect stalls quickly and a drain finishes fast, large
#: enough to amortize the per-unit store round trips.
DEFAULT_UNIT_SEEDS = 2

#: A worker with no heartbeat for this many seconds is abandoned.
DEFAULT_STALL_TIMEOUT = 60.0

_UnitKey = Tuple[str, int, int]


@dataclass(frozen=True)
class WorkUnit:
    """One worker-sized slice of a job (a contiguous seed range)."""

    job_id: str
    spec: JobSpec            # normalized (debugger resolved)
    seeds: SeedSpec
    levels: Tuple[str, ...]  # resolved display levels
    attempt: int = 0

    def key(self) -> _UnitKey:
        return (self.job_id, self.seeds.base, self.seeds.count)


@dataclass
class JobProgress:
    """The scheduler's in-memory view of one admitted job."""

    spec: JobSpec
    job_id: str
    levels: Tuple[str, ...]
    total_units: int
    deadline_at: Optional[float] = None
    completed: Set[_UnitKey] = field(default_factory=set)
    abandoned: Set[_UnitKey] = field(default_factory=set)
    #: Stall-respawn accounting per unit key (monitor-side, since the
    #: stuck thread owns the WorkUnit value itself).
    stall_attempts: Dict[_UnitKey, int] = field(default_factory=dict)
    state: str = "queued"

    def finished(self) -> bool:
        return (len(self.completed) + len(self.abandoned)
                >= self.total_units)

    def detail(self) -> str:
        done = len(self.completed)
        text = f"{done}/{self.total_units} units"
        if self.abandoned:
            text += f", {len(self.abandoned)} abandoned"
        return text


class Scheduler:
    """Run admitted jobs over supervised worker threads (see module
    docstring).  ``store_path`` must be a file — each thread opens its
    own sqlite connection."""

    def __init__(self, store_path: str, *, workers: int = 2,
                 window: int = 8, max_jobs: int = 8,
                 unit_seeds: int = DEFAULT_UNIT_SEEDS,
                 retry: Optional[RetryPolicy] = None,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 faults: Optional[FaultPlan] = None,
                 retry_after: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleeper: Callable[[float], None] = time.sleep,
                 evaluator: Optional[Callable] = None,
                 poll: float = 0.05):
        if store_path == ":memory:":
            raise ValueError(
                "the service needs a file-backed store: worker threads "
                "each open their own connection, which ':memory:' "
                "cannot share")
        self.store_path = store_path
        self.worker_count = max(1, workers)
        self.unit_seeds = max(1, unit_seeds)
        self.retry = retry or RetryPolicy()
        self.stall_timeout = stall_timeout
        self.max_attempts = max_attempts
        self.faults = faults
        self.clock = clock
        self.sleeper = sleeper
        self.evaluator = evaluator or self._evaluate
        self.poll = poll
        self.jobs_queue = AdmissionQueue(max_jobs, retry_after,
                                         name="job backlog")
        self.units = AdmissionQueue(window, retry_after,
                                    name="unit window")
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobProgress] = {}
        self._cancelled: Set[str] = set()
        #: slot -> (generation, unit key or None, last heartbeat).
        self._beats: Dict[int, Tuple[int, Optional[_UnitKey], float]] = {}
        self._threads: List[threading.Thread] = []
        self._worker_threads: Dict[int, threading.Thread] = {}
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._toolchains = threading.local()
        self.units_completed = 0
        self.units_requeued = 0
        self.workers_respawned = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        intake = threading.Thread(target=self._intake_loop,
                                  name="serve-intake", daemon=True)
        monitor = threading.Thread(target=self._monitor_loop,
                                   name="serve-monitor", daemon=True)
        self._threads = [intake, monitor]
        for slot in range(self.worker_count):
            self._spawn_worker(slot)
        intake.start()
        monitor.start()

    def _spawn_worker(self, slot: int) -> None:
        with self._lock:
            generation, unit_key, _ = self._beats.get(
                slot, (0, None, self.clock()))
            self._beats[slot] = (generation + 1, None, self.clock())
            generation += 1
        thread = threading.Thread(
            target=self._worker_loop, args=(slot, generation),
            name=f"serve-worker-{slot}", daemon=True)
        self._worker_threads[slot] = thread
        thread.start()

    def drain(self) -> None:
        """Stop admitting; workers finish their current unit and exit.
        Queued-but-unstarted units stay in the ledger for the restart
        to resume."""
        self._draining.set()
        self.jobs_queue.drain()
        self.units.drain()
        self._stopping.set()
        for thread in list(self._worker_threads.values()):
            thread.join(timeout=max(self.stall_timeout, 10.0))
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- submission ----------------------------------------------------------

    def admit(self, progress: JobProgress, *,
              recovered: bool = False) -> None:
        """Queue one job for expansion.  ``recovered`` jobs (ledger
        replays after a restart) bypass the shedding bound — their
        count was already admission-controlled by the previous
        incarnation."""
        with self._lock:
            self._jobs[progress.job_id] = progress
        if recovered:
            self.jobs_queue.requeue(progress)
            return
        try:
            self.jobs_queue.offer(progress)
        except ServiceOverloaded:
            # Shed cleanly: leave no progress ghost behind, or the
            # retried submission would see the job as already admitted
            # and report success without ever queueing it.
            with self._lock:
                self._jobs.pop(progress.job_id, None)
            raise

    def progress(self, job_id: str) -> Optional[JobProgress]:
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self) -> Dict[str, object]:
        """Health-endpoint accounting."""
        with self._lock:
            jobs = {state: 0 for state in
                    ("queued", "running", "done", "failed", "expired")}
            for progress in self._jobs.values():
                jobs[progress.state] = jobs.get(progress.state, 0) + 1
            busy = sum(1 for _, key, _beat in self._beats.values()
                       if key is not None)
        return {
            "workers": self.worker_count,
            "workers_busy": busy,
            "workers_respawned": self.workers_respawned,
            "jobs": jobs,
            "job_backlog": len(self.jobs_queue),
            "unit_window": len(self.units),
            "units_completed": self.units_completed,
            "units_requeued": self.units_requeued,
            "draining": self._draining.is_set(),
        }

    # -- intake --------------------------------------------------------------

    def _intake_loop(self) -> None:
        from ..store import CampaignStore
        store = CampaignStore(self.store_path)
        try:
            while not self._stopping.is_set():
                progress = self.jobs_queue.get(timeout=self.poll)
                if progress is None:
                    continue
                self._expand(progress, store)
        finally:
            store.close()

    def _expand(self, progress: JobProgress, store) -> None:
        spec = progress.spec
        with self._lock:
            if progress.deadline_at is None and spec.deadline:
                progress.deadline_at = self.clock() + spec.deadline
            progress.state = "running"
        try:
            store.set_job_state(progress.job_id, "running",
                                progress.detail())
        except Exception:
            pass  # ledger state is advisory; the units are the work
        shard_count = -(-spec.pool_size // self.unit_seeds)
        seed_spec = SeedSpec(base=spec.seed_base, count=spec.pool_size)
        for seeds in seed_spec.shard(shard_count):
            unit = WorkUnit(job_id=progress.job_id, spec=spec,
                            seeds=seeds, levels=progress.levels)
            while not self._stopping.is_set():
                with self._lock:
                    if progress.job_id in self._cancelled:
                        return
                if self.units.put(unit, timeout=self.poll):
                    break
                if self.units.draining:
                    return

    # -- workers -------------------------------------------------------------

    def _worker_loop(self, slot: int, generation: int) -> None:
        from ..store import CampaignStore
        store = CampaignStore(self.store_path)
        try:
            while not self._stopping.is_set():
                unit = self.units.get(timeout=self.poll)
                if unit is None:
                    continue
                with self._lock:
                    current = self._beats.get(slot)
                    if current is None or current[0] != generation:
                        # This thread was abandoned while idle; put the
                        # unit back for the replacement.
                        self.units.requeue(unit)
                        return
                    if unit.job_id in self._cancelled:
                        continue
                    self._beats[slot] = (generation, unit.key(),
                                         self.clock())
                try:
                    self.evaluator(unit, store)
                except KeyboardInterrupt:
                    raise
                except Exception:
                    # A unit-level explosion outside per-seed
                    # containment: treat it exactly like a stall —
                    # retry with attempt accounting, quarantine after
                    # the budget.
                    self._unit_crashed(slot, generation, unit, store)
                    continue
                finally:
                    with self._lock:
                        current = self._beats.get(slot)
                        if (current is not None
                                and current[0] == generation):
                            self._beats[slot] = (generation, None,
                                                 self.clock())
                self._unit_done(slot, generation, unit, store)
        finally:
            store.close()

    def _evaluate(self, unit: WorkUnit, store) -> None:
        """Default unit evaluator: the serial campaign driver over the
        unit's seed range, writing through the shared store (per-thread
        toolchains — debugger/compiler objects are not shared across
        worker threads)."""
        cache = getattr(self._toolchains, "cache", None)
        if cache is None:
            cache = self._toolchains.cache = {}
        compiler_spec = CompilerSpec(family=unit.spec.family,
                                     version=unit.spec.version)
        debugger_spec = DebuggerSpec(name=unit.spec.debugger)
        for spec in (compiler_spec, debugger_spec):
            if spec not in cache:
                cache[spec] = spec.build()
        run_campaign_seeds(
            cache[compiler_spec], cache[debugger_spec], unit.seeds,
            levels=unit.levels, store=store, faults=self.faults,
            max_attempts=self.max_attempts)

    def _unit_done(self, slot: int, generation: int, unit: WorkUnit,
                   store) -> None:
        with self._lock:
            current = self._beats.get(slot)
            if current is None or current[0] != generation:
                return  # abandoned mid-unit; the respawn re-runs it
            progress = self._jobs.get(unit.job_id)
            if progress is None or unit.job_id in self._cancelled:
                return
            progress.completed.add(unit.key())
            self.units_completed += 1
            finished = progress.finished()
            if finished:
                progress.state = ("failed" if progress.abandoned
                                  else "done")
            state, detail = progress.state, progress.detail()
        if finished:
            try:
                store.set_job_state(unit.job_id, state, detail)
                store.checkpoint()
            except Exception:
                pass

    def _unit_crashed(self, slot: int, generation: int, unit: WorkUnit,
                      store) -> None:
        """Retry-or-quarantine for a unit whose evaluation raised."""
        if unit.attempt + 1 < self.retry.max_attempts:
            with self._lock:
                self.units_requeued += 1
            self.sleeper(self.retry.delay(str(unit.key()),
                                          unit.attempt))
            self.units.requeue(replace(unit, attempt=unit.attempt + 1))
        else:
            self._abandon_unit(unit, store)

    def _abandon_unit(self, unit: WorkUnit, store) -> None:
        """Quarantine every unfinished seed of a unit that exhausted
        its retry budget, then count the unit as (unsuccessfully)
        finished so the job cannot wedge."""
        spec = unit.spec
        cell = f"{spec.family}-{spec.version}/{spec.debugger}"
        try:
            run = store.run_id(CAMPAIGN_SCHEMA, spec.family,
                               spec.version, unit.levels,
                               debugger=spec.debugger)
            for seed in unit.seeds.seeds():
                if store.has_result(run, seed):
                    continue
                record = FailureRecord(
                    seed=seed, cell=cell, item="", stage="worker",
                    kind="crash", error="WorkerStalled",
                    detail=f"unit abandoned after "
                           f"{self.retry.max_attempts} attempts",
                    digest="", attempts=self.retry.max_attempts,
                    status="quarantined")
                store.put_failure(run, seed, "", record.to_dict())
        except Exception:
            pass
        with self._lock:
            progress = self._jobs.get(unit.job_id)
            if progress is None:
                return
            progress.abandoned.add(unit.key())
            finished = progress.finished()
            if finished:
                progress.state = "failed"
            state, detail = progress.state, progress.detail()
        if finished:
            try:
                store.set_job_state(unit.job_id, state, detail)
            except Exception:
                pass

    # -- supervision ---------------------------------------------------------

    def _monitor_loop(self) -> None:
        from ..store import CampaignStore
        store = CampaignStore(self.store_path)
        try:
            while not self._stopping.is_set():
                self._check_stalls(store)
                self._check_deadlines(store)
                self._stopping.wait(timeout=self.poll)
        finally:
            store.close()

    def _check_stalls(self, store) -> None:
        now = self.clock()
        stalled: List[Tuple[int, WorkUnit]] = []
        with self._lock:
            for slot, (generation, unit_key, beat) in list(
                    self._beats.items()):
                if unit_key is None:
                    continue
                if now - beat <= self.stall_timeout:
                    continue
                # Abandon: bump the generation so the stuck thread's
                # eventual completion (and its benign, idempotent store
                # writes) no longer counts.
                self._beats[slot] = (generation + 1, None, now)
                stalled.append((slot, unit_key))
                self.workers_respawned += 1
        for slot, unit_key in stalled:
            unit = self._find_unit(unit_key)
            if unit is not None:
                if unit.attempt + 1 < self.retry.max_attempts:
                    with self._lock:
                        self.units_requeued += 1
                    self.sleeper(self.retry.delay(str(unit_key),
                                                  unit.attempt))
                    self.units.requeue(
                        replace(unit, attempt=unit.attempt + 1))
                else:
                    self._abandon_unit(unit, store)
            self._spawn_worker(slot)

    def _find_unit(self, unit_key: _UnitKey) -> Optional[WorkUnit]:
        """Rebuild the stalled unit from its key and job progress (the
        unit itself is owned by the stuck thread)."""
        job_id, base, count = unit_key
        with self._lock:
            progress = self._jobs.get(job_id)
            if progress is None or job_id in self._cancelled:
                return None
            attempt = progress.stall_attempts.get(unit_key, 0)
            progress.stall_attempts[unit_key] = attempt + 1
            return WorkUnit(job_id=job_id, spec=progress.spec,
                            seeds=SeedSpec(base=base, count=count),
                            levels=progress.levels, attempt=attempt)

    def _check_deadlines(self, store) -> None:
        now = self.clock()
        expired: List[JobProgress] = []
        with self._lock:
            for progress in self._jobs.values():
                if (progress.deadline_at is not None
                        and progress.state == "running"
                        and now > progress.deadline_at):
                    progress.state = "expired"
                    self._cancelled.add(progress.job_id)
                    expired.append(progress)
        for progress in expired:
            try:
                store.set_job_state(progress.job_id, "expired",
                                    progress.detail())
            except Exception:
                pass
