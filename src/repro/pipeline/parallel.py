"""Parallel sharded campaign and study drivers.

The paper's core experiment is embarrassingly parallel: every seed is an
independent generate → compile-at-every-level → trace → check job. This
module shards work across ``multiprocessing`` workers and merges the
per-shard results.  Every keyed-unit driver — the matrix (and its 1x1
case, :func:`run_campaign_parallel`), verify and bisection — ships its
slice in one :class:`UnitShard`, and one worker entry point
(:func:`run_unit_shard`) runs the one unit loop
(:func:`~repro.pipeline.units.run_units`) over it.

Design invariants (pinned by ``tests/test_parallel_campaign.py``):

* **Spawn safety** — workers never receive live ``Compiler``/``Debugger``
  objects (the defect catalog holds selector closures); they receive
  picklable specs (:class:`~repro.compilers.compiler.CompilerSpec`,
  :class:`~repro.debugger.specs.DebuggerSpec`) and rebuild the toolchain
  from the catalog. The default start method is ``spawn`` — the strictest
  one — so the same code is safe under fork too.
* **Determinism** — program generation is a pure function of the seed and
  defect selectors hash stable per-program tokens, so a shard computes
  the same ``ProgramResult`` values in any process. Merging renormalizes
  by seed; serial and parallel campaigns are therefore *bit-identical*.
* **Exact study reduction** — the sharded study concatenates per-shard,
  per-program metric lists in seed order and averages left to right, the
  same float operations in the same order as the serial run.
* **One rescue path** — a :class:`UnitShard` carries ``crash_base`` and
  ``escalate_crashes``; :func:`_map_shards` respawns a crashed shard as
  ``replace(shard, crash_base=n)`` and, past the retry bound, rescues it
  by running the same worker in the driver with
  ``escalate_crashes=False``.

Merged results serialize to the same ``repro-campaign/1`` /
``repro-matrix/1`` / ``repro-study/1`` artifacts as the serial drivers
(``docs/ARTIFACTS.md``), so anything a worker fleet produces renders
through :mod:`repro.report` unchanged.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..compilers.compiler import CompilerSpec
from ..debugger.specs import DebuggerSpec, spec_for
from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan, InjectedCrash
from ..fuzz.seeds import SeedSpec
from ..metrics.study import (
    CellSamples, StudyResult, measure_pool_cells, reduce_cells,
)
from .campaign import CampaignResult
from .matrix import (
    CompilerLike, DebuggerLike, MatrixCampaignResult,
    build_cached, matrix_workload,
)
from .results import fold_results
from .units import Workload, run_units

#: Shards handed out per worker; >1 smooths load imbalance between seeds
#: (validation retries make some programs costlier than others) and
#: bounds the blast radius of a dying worker: a crash costs at most one
#: shard's unfinished seeds per incarnation, which the supervisor in
#: ``_map_shards`` respawns.
SHARDS_PER_WORKER = 4


@contextmanager
def open_store(path: Optional[str]) -> Iterator:
    """A :class:`~repro.store.CampaignStore` on ``path`` for the block,
    closed afterwards; ``None`` yields ``None`` (storeless runs skip
    persistence entirely).

    Shards carry the store as a *path*, not a handle — sqlite
    connections don't pickle and must not cross a spawn boundary.  Each
    worker opens its own connection; WAL mode plus the store's busy
    timeout make concurrent shard writes safe.  The driver CLIs open
    their ``--store`` the same way.
    """
    if path is None:
        yield None
        return
    from ..store import CampaignStore  # lazy: avoid an import cycle
    with CampaignStore(path) as store:
        yield store


def as_compiler_spec(compiler: CompilerLike) -> CompilerSpec:
    if isinstance(compiler, CompilerSpec):
        return compiler
    return compiler.spec()


def as_debugger_spec(debugger: DebuggerLike) -> DebuggerSpec:
    if isinstance(debugger, str):
        return DebuggerSpec(name=debugger)
    if isinstance(debugger, DebuggerSpec):
        return debugger
    return spec_for(debugger)


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded shard respawns with exponential backoff and
    deterministic jitter.

    ``max_attempts`` counts total shard incarnations; the delay before
    respawn ``attempt`` (0-based) grows as ``base * factor**attempt``
    capped at ``limit``, scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter)`` hashed from ``(token, attempt)`` — the
    spread that stops a respawned fleet from thundering in lockstep,
    without a live RNG, so a supervised run's schedule reproduces.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_limit: float = 2.0
    jitter: float = 0.5

    def delay(self, token: str, attempt: int) -> float:
        base = min(self.backoff_limit,
                   self.backoff_base * self.backoff_factor ** attempt)
        digest = hashlib.sha256(
            f"{token}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
        return base * (1.0 - self.jitter + 2.0 * self.jitter * fraction)


def _run_wave(worker, items: List[Tuple[int, object]], workers: int,
              start_method: str, in_process: bool):
    """One dispatch wave: run every ``(index, shard)`` item, splitting
    the outcomes into finished results and crashed shards.

    Each shard is its own future (no chunk batching): a shard that
    dies — or, before containment existed, raised — can no longer take
    a whole worker batch down with it.  Worker death surfaces as
    ``BrokenProcessPool`` on every unfinished future of the wave (the
    victim cannot be identified, so the supervisor charges every
    unfinished shard one incarnation) or as a pickled
    :class:`~repro.faults.plan.InjectedCrash` for soft-crash plans,
    which keeps per-shard attribution exact.  Any other exception is a
    driver bug and propagates.
    """
    done: dict = {}
    crashed: dict = {}
    if in_process:
        for index, shard in items:
            try:
                done[index] = worker(shard)
            except InjectedCrash as error:
                crashed[index] = error
        return done, crashed
    context = multiprocessing.get_context(start_method)
    with ProcessPoolExecutor(max_workers=min(workers, len(items)),
                             mp_context=context) as pool:
        futures = [(pool.submit(worker, shard), index)
                   for index, shard in items]
        for future, index in futures:
            try:
                done[index] = future.result()
            except (BrokenProcessPool, InjectedCrash) as error:
                crashed[index] = error
    return done, crashed


def _map_shards(worker, shards: List, workers: int, start_method: str,
                retry: Optional[RetryPolicy] = None,
                sleeper: Optional[Callable[[float], None]] = None
                ) -> List:
    """Run ``worker`` over every shard, in shard order.

    ``workers <= 1`` (or a single shard) stays in-process — no pool, no
    spawn cost for small jobs — while still going through the same
    shard/merge/supervision path as the multi-process run.

    With a :class:`RetryPolicy` the map is *supervised*, and every
    shard must be a frozen dataclass carrying ``crash_base`` and
    ``escalate_crashes``.  A crashed shard (worker death, injected or
    real) is respawned as ``replace(shard, crash_base=n)`` after the
    policy's backoff, so the containment boundary reconstructs exact
    crash accounting from ``n`` deaths.  Past the policy's attempt
    bound the driver runs ``worker(replace(shard, crash_base=n,
    escalate_crashes=False))`` itself: the serial containment boundary
    quarantines the seeds that keep killing workers and evaluates the
    rest.  Finished shards are never re-run.  Without a policy, a crash
    propagates.
    """
    sleep = time.sleep if sleeper is None else sleeper
    in_process = workers <= 1 or len(shards) == 1
    results: List = [None] * len(shards)
    current = list(shards)
    crash_counts = [0] * len(shards)
    pending = list(range(len(shards)))
    while pending:
        done, crashed = _run_wave(
            worker, [(index, current[index]) for index in pending],
            workers, start_method, in_process)
        for index, value in done.items():
            results[index] = value
        if not crashed:
            break
        if retry is None:
            raise crashed[min(crashed)]
        respawning = []
        delay = 0.0
        for index in sorted(crashed):
            crash_counts[index] += 1
            current[index] = replace(current[index],
                                     crash_base=crash_counts[index])
            if crash_counts[index] >= retry.max_attempts:
                results[index] = worker(
                    replace(current[index], escalate_crashes=False))
                continue
            respawning.append(index)
            delay = max(delay, retry.delay(str(index),
                                           crash_counts[index] - 1))
        if respawning and delay > 0.0:
            sleep(delay)
        pending = respawning
    return results


# -- campaign -----------------------------------------------------------------


def run_campaign_parallel(compiler: CompilerLike, debugger: DebuggerLike,
                          pool_size: int = 100, seed_base: int = 0,
                          levels: Optional[Sequence[str]] = None,
                          workers: Optional[int] = None,
                          start_method: str = "spawn",
                          store_path: Optional[str] = None,
                          faults: Optional[FaultPlan] = None,
                          max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                          retry_failed: bool = True,
                          retry: Optional[RetryPolicy] = None,
                          sleeper: Optional[Callable[[float], None]] = None
                          ) -> CampaignResult:
    """Sharded, multi-process equivalent of
    :func:`~repro.pipeline.campaign.run_campaign`: the one cell of the
    1x1 :func:`run_matrix_campaign_parallel`.

    Produces a result bit-identical to the serial driver for the same
    ``(pool_size, seed_base, levels)`` — including the failure records
    of a ``faults`` chaos plan, whose injected worker deaths the
    supervising :func:`_map_shards` absorbs by respawning crashed
    shards with bounded retries, exponential backoff and deterministic
    jitter (``retry`` overrides the policy; ``sleeper`` is the backoff
    clock, injectable for tests).  ``workers`` defaults to the CPU
    count; ``workers <= 1`` runs the shards in-process (no pool), which
    keeps small campaigns cheap while still exercising the merge and
    supervision paths.  ``store_path`` names a shared store file every
    worker writes through (and resumes from) with WAL-mode concurrent
    access — a respawned shard replays its finished seeds from the
    store, so only the unfinished range is re-evaluated.
    """
    matrix = run_matrix_campaign_parallel(
        compilers=[compiler], debuggers=[debugger], pool_size=pool_size,
        seed_base=seed_base, levels=levels, workers=workers,
        start_method=start_method, store_path=store_path, faults=faults,
        max_attempts=max_attempts, retry_failed=retry_failed,
        retry=retry, sleeper=sleeper)
    (cell,) = matrix.cells.values()
    return cell


# -- study --------------------------------------------------------------------


@dataclass(frozen=True)
class StudyShard:
    """One worker's unit of study work (fully picklable)."""

    family: str
    versions: Tuple[str, ...]
    levels: Tuple[str, ...]
    debugger: DebuggerSpec
    seeds: SeedSpec


def run_study_shard(shard: StudyShard) -> CellSamples:
    """Worker entry point: per-program metrics for one seed shard."""
    return measure_pool_cells(
        shard.seeds.generate(), shard.family, shard.versions,
        shard.levels, build_cached(shard.debugger))


def run_study_parallel(family: str, versions: Sequence[str],
                       levels: Sequence[str], debugger: DebuggerLike,
                       pool_size: int, seed_base: int = 0,
                       workers: Optional[int] = None,
                       start_method: str = "spawn") -> StudyResult:
    """Sharded Figure 1 / Table 4 study over a generated seed range.

    Bit-identical to :func:`~repro.metrics.study.run_study_seeds` on the
    same range: shard sample lists are concatenated in seed order before
    the same left-to-right reduction the serial driver uses.
    """
    debugger_spec = as_debugger_spec(debugger)
    if workers is None:
        workers = default_workers()
    spec = SeedSpec(base=seed_base, count=pool_size)
    if pool_size == 0:
        return StudyResult(pool_size=0)
    shards = [
        StudyShard(family=family, versions=tuple(versions),
                   levels=tuple(levels), debugger=debugger_spec,
                   seeds=seed_shard)
        for seed_shard in spec.shard(max(1, workers) * SHARDS_PER_WORKER)
    ]
    parts = _map_shards(run_study_shard, shards, workers, start_method)
    cells: CellSamples = {}
    for part in parts:  # shard order == seed order
        for key, samples in part.items():
            cells.setdefault(key, []).extend(samples)
    return reduce_cells(cells, pool_size=pool_size)


# -- keyed-unit shards -------------------------------------------------------


@dataclass(frozen=True)
class UnitShard:
    """One worker's slice of a keyed-unit driver (fully picklable).

    ``build(*work)`` makes the driver's
    :class:`~repro.pipeline.units.Workload` inside the worker: ``build``
    is a module-level callable (it pickles by reference) and ``work`` is
    the slice — toolchain specs plus a :class:`~repro.fuzz.seeds.SeedSpec`,
    or a program slice as ``repro-campaign/1`` JSON.
    """

    build: Callable[..., Workload]
    work: Tuple
    store_path: Optional[str] = None
    faults: Optional[FaultPlan] = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    retry_failed: bool = True
    #: How many times this shard's worker has already died — threaded
    #: into the containment boundary so respawned workers reconstruct
    #: exact crash accounting (see FaultPlan.prior_crashes).
    crash_base: int = 0
    #: False only for the supervisor's in-driver rescue run, where the
    #: serial boundary simulates the remaining crash budget per seed.
    escalate_crashes: bool = True


def run_unit_shard(shard: UnitShard):
    """Worker entry point: :func:`~repro.pipeline.units.run_units` over
    one slice, writing through the shared WAL-mode store when the shard
    names one.  Injected worker death escalates for the supervisor,
    except in its in-driver rescue run (see :func:`_map_shards`)."""
    with open_store(shard.store_path) as store:
        return run_units(
            shard.build(*shard.work), store=store, faults=shard.faults,
            max_attempts=shard.max_attempts,
            retry_failed=shard.retry_failed, crash_base=shard.crash_base,
            escalate_crashes=shard.escalate_crashes)


def map_unit_shards(build: Callable[..., Workload],
                    slices: Callable[[int], Iterable[Tuple]],
                    workers: Optional[int], start_method: str,
                    store_path: Optional[str] = None,
                    faults: Optional[FaultPlan] = None,
                    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                    retry_failed: bool = True,
                    retry: Optional[RetryPolicy] = None,
                    sleeper: Optional[Callable[[float], None]] = None
                    ) -> List:
    """One :class:`UnitShard` per slice of ``slices(n)`` — the driver's
    work cut into at most ``n`` pieces, ``SHARDS_PER_WORKER`` per worker
    (``workers`` defaults to the CPU count) — run under
    :func:`_map_shards` supervision (``retry`` defaults to
    ``RetryPolicy(max_attempts)``).  Returns the per-shard results in
    slice order for the driver to fold."""
    if workers is None:
        workers = default_workers()
    shards = [UnitShard(build, work, store_path=store_path,
                        faults=faults, max_attempts=max_attempts,
                        retry_failed=retry_failed)
              for work in slices(max(1, workers) * SHARDS_PER_WORKER)]
    if retry is None:
        retry = RetryPolicy(max_attempts=max_attempts)
    return _map_shards(run_unit_shard, shards, workers, start_method,
                       retry=retry, sleeper=sleeper)


# -- compile-once matrix ------------------------------------------------------


def run_matrix_campaign_parallel(
        compilers: Optional[Sequence[CompilerLike]] = None,
        debuggers: Optional[Sequence[DebuggerLike]] = None,
        pool_size: int = 100, seed_base: int = 0,
        levels: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
        start_method: str = "spawn",
        families: Optional[Sequence[str]] = None,
        version: str = "trunk",
        store_path: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_failed: bool = True,
        retry: Optional[RetryPolicy] = None,
        sleeper: Optional[Callable[[float], None]] = None
        ) -> MatrixCampaignResult:
    """Sharded, multi-process compile-once matrix campaign.

    Bit-identical to :func:`~repro.pipeline.matrix.run_matrix_campaign`
    for the same arguments — chaos plans included: shards are seed
    ranges, workers regenerate and lower each program once, the merged
    result's fingerprints prove the lowered modules match the serial
    run's, and injected worker deaths are supervised with bounded
    respawns exactly like :func:`run_campaign_parallel`.
    """
    if compilers is None:
        chosen = tuple(families) if families else ("gcc", "clang")
        compilers = [CompilerSpec(family=family, version=version)
                     for family in chosen]
    if debuggers is None:
        debuggers = ("gdb-like", "lldb-like")
    compiler_specs = tuple(as_compiler_spec(c) for c in compilers)
    debugger_specs = tuple(as_debugger_spec(d) for d in debuggers)
    spec = SeedSpec(base=seed_base, count=pool_size)
    return fold_results(map_unit_shards(
        matrix_workload,
        lambda n: [(compiler_specs, debugger_specs, seed_shard, levels)
                   for seed_shard in spec.shard(n)],
        workers, start_method, store_path=store_path, faults=faults,
        max_attempts=max_attempts, retry_failed=retry_failed,
        retry=retry, sleeper=sleeper))
