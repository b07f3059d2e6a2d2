"""The campaign service: jobs in, streamed results and reports out.

:class:`CampaignService` composes the store (durable, idempotent,
resumable), the scheduler (bounded window, supervised workers) and the
job ledger into one long-running facade the HTTP layer exposes:

* **submit** parses a ``repro-job/1`` document, records it in the
  ledger (duplicate submissions of the same identity are no-ops that
  return the existing job) and admits it to the scheduler — or sheds
  load with :class:`~repro.serve.window.ServiceOverloaded`.
* **ingest_shard** accepts a ``repro-campaign/1`` artifact computed
  elsewhere (a federated worker's shard) and files it under the exact
  rows a live run would resume — ``put_result`` makes duplicate POSTs
  byte-exact no-ops and flags divergent payloads, and any included
  program sources / module fingerprints are verified against the
  stored ones.
* **job_artifact** assembles the finished job's ``repro-campaign/1``
  document from the store — byte-identical to what the serial
  ``run_campaign`` driver would have produced for the same range.
* **recover** (called by :meth:`start`) re-admits every ledger job the
  previous incarnation left queued or running; their finished seeds
  replay from the store at zero recompiles.
* **drain** stops admission, lets workers finish their in-flight
  units, flushes the store and leaves everything else for the next
  incarnation.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..compilers.compiler import CompilerSpec
from ..faults.plan import FaultPlan
from ..faults.records import FailureRecord
from ..pipeline.campaign import CAMPAIGN_SCHEMA, CampaignResult
from ..pipeline.parallel import RetryPolicy
from ..pipeline.units import Cell
from ..store import CampaignStore
from .jobs import JobSpec
from .scheduler import (
    DEFAULT_STALL_TIMEOUT, DEFAULT_UNIT_SEEDS, JobProgress, Scheduler,
)
from .window import ServiceOverloaded


class JobNotFound(KeyError):
    """No such job in the ledger."""


class JobNotFinished(RuntimeError):
    """The job exists but its artifact is not complete yet."""


def _resolve_levels(spec: JobSpec) -> Tuple[str, ...]:
    """The display-level list the serial driver would use — explicit
    levels as given, otherwise every optimized level of the family in
    catalog order (``run_campaign``'s default)."""
    if spec.levels:
        return tuple(spec.levels)
    compiler = CompilerSpec(family=spec.family,
                            version=spec.version).build()
    return tuple(l for l in compiler.levels if l != "O0")


class CampaignService:
    """One long-running campaign service over one store file."""

    def __init__(self, store_path: str, *, workers: int = 2,
                 window: int = 8, max_jobs: int = 8,
                 unit_seeds: int = DEFAULT_UNIT_SEEDS,
                 retry: Optional[RetryPolicy] = None,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT,
                 faults: Optional[FaultPlan] = None,
                 retry_after: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleeper: Callable[[float], None] = time.sleep,
                 evaluator: Optional[Callable] = None,
                 poll: float = 0.05):
        self.scheduler = Scheduler(
            store_path, workers=workers, window=window,
            max_jobs=max_jobs, unit_seeds=unit_seeds, retry=retry,
            stall_timeout=stall_timeout, faults=faults,
            retry_after=retry_after, clock=clock, sleeper=sleeper,
            evaluator=evaluator, poll=poll)
        self.store_path = store_path
        self._local = threading.local()
        self._stores: List[CampaignStore] = []
        self._stores_lock = threading.Lock()
        self.started = False
        self.draining = False

    @property
    def store(self) -> CampaignStore:
        """A per-thread store connection: sqlite connections are
        thread-bound, and every HTTP handler thread of the threading
        server calls straight into the service."""
        store = getattr(self._local, "store", None)
        if store is None:
            store = CampaignStore(self.store_path)
            self._local.store = store
            with self._stores_lock:
                self._stores.append(store)
        return store

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> int:
        """Start the scheduler and re-admit every unfinished ledger
        job; returns how many were recovered."""
        self.scheduler.start()
        recovered = 0
        rows = self.store.jobs_in_state("queued", "running")
        for row in reversed(rows):  # requeue prepends; keep id order
            spec = JobSpec.from_dict(row["spec"])
            self.scheduler.admit(self._progress_for(spec),
                                 recovered=True)
            recovered += 1
        self.started = True
        return recovered

    def drain(self) -> None:
        """Graceful shutdown: shed new work, finish in-flight units,
        flush the store."""
        self.draining = True
        self.scheduler.drain()
        self.store.checkpoint()

    def close(self) -> None:
        import sqlite3
        with self._stores_lock:
            stores, self._stores = self._stores, []
        for store in stores:
            try:
                store.close()
            except sqlite3.ProgrammingError:
                # sqlite connections are thread-affine: a connection a
                # (finished) handler thread opened can only be closed
                # by that thread; it is freed with the object instead.
                pass
        self._local = threading.local()

    # -- submission ----------------------------------------------------------

    def _progress_for(self, spec: JobSpec) -> JobProgress:
        spec = spec.normalized()
        total_units = -(-spec.pool_size // self.scheduler.unit_seeds)
        return JobProgress(spec=spec, job_id=spec.job_id,
                           levels=_resolve_levels(spec),
                           total_units=total_units)

    def submit(self, payload: Dict[str, object]
               ) -> Tuple[str, bool]:
        """Admit one ``repro-job/1`` document; returns ``(job_id,
        created)``.  A duplicate of a known job (any state) changes
        nothing and returns ``created=False``; overload raises
        :class:`ServiceOverloaded`; a malformed document raises
        ``ValueError``."""
        if self.draining:
            raise ServiceOverloaded("service is draining", 1.0)
        spec = JobSpec.from_dict(payload).normalized()
        created = self.store.put_job(spec.job_id, spec.identity())
        if not created:
            return spec.job_id, False
        progress = self._progress_for(spec)
        try:
            self.scheduler.admit(progress)
        except ServiceOverloaded:
            # Shed: roll the ledger row forward as queued-but-unadmitted
            # is indistinguishable from queued — but the client was
            # refused, so keep the ledger consistent with "nothing
            # happened" by leaving the row queued; a resubmission after
            # Retry-After (same id) re-admits it.
            self.store.set_job_state(spec.job_id, "queued",
                                     "shed: backlog full")
            raise
        return spec.job_id, True

    def resubmit(self, job_id: str) -> bool:
        """Re-admit a ledger job that was shed or left over (used by
        duplicate POSTs of a known-but-idle job)."""
        row = self.store.get_job(job_id)
        if row is None:
            raise JobNotFound(job_id)
        if self.scheduler.progress(job_id) is not None:
            return False
        if row["state"] in ("done", "failed", "expired"):
            return False
        spec = JobSpec.from_dict(row["spec"])
        self.scheduler.admit(self._progress_for(spec))
        return True

    # -- status --------------------------------------------------------------

    def job_status(self, job_id: str) -> Dict[str, object]:
        row = self.store.get_job(job_id)
        if row is None:
            raise JobNotFound(job_id)
        status = {"job": job_id, "state": row["state"],
                  "detail": row["detail"], "spec": row["spec"]}
        progress = self.scheduler.progress(job_id)
        if progress is not None:
            status["state"] = progress.state
            status["detail"] = progress.detail()
        return status

    def jobs(self) -> List[Dict[str, object]]:
        return [self.job_status(row["job"])
                for row in self.store.jobs_in_state()]

    def health(self) -> Dict[str, object]:
        data = self.scheduler.snapshot()
        data["store"] = self.store_path
        data["draining"] = self.draining
        return data

    # -- deliverables --------------------------------------------------------

    def job_result(self, job_id: str) -> CampaignResult:
        """Assemble the finished job's result from the store — the
        exact value (hence the exact JSON bytes) the serial driver
        returns for the same seed range."""
        status = self.job_status(job_id)
        spec = JobSpec.from_dict(status["spec"])
        cell = Cell(spec.job_id, CAMPAIGN_SCHEMA, spec.family,
                    spec.version, _resolve_levels(spec),
                    debugger=spec.debugger)
        run = self.store.run_id(cell.schema, cell.family, cell.version,
                                cell.levels, debugger=cell.debugger)
        payloads: List[Dict[str, object]] = []
        failures: List[FailureRecord] = []
        for seed in range(spec.seed_base,
                          spec.seed_base + spec.pool_size):
            # A quarantined seed has only a failure record; a recovered
            # one has both.
            payload = self.store.get_result(run, seed)
            failure = self.store.get_failure(run, seed)
            if payload is None and failure is None:
                raise JobNotFinished(
                    f"job {job_id} is {status['state']} "
                    f"({status['detail']}): seed {seed} has no stored "
                    f"result yet")
            if payload is not None:
                payloads.append(payload)
            if failure is not None:
                failures.append(FailureRecord.from_dict(failure))
        return CampaignResult.from_rows(cell, payloads, failures,
                                        spec.pool_size)

    def job_artifact(self, job_id: str) -> Dict[str, object]:
        return self.job_result(job_id).to_dict()

    def report(self, deliverable: str, job_id: str,
               fmt: str = "md") -> Tuple[str, str]:
        """Render one deliverable of a finished job straight from the
        store; returns ``(text, content type)``."""
        from ..report import (
            deliverables_for, get_renderer, render_many,
        )
        result = self.job_result(job_id)
        tables = dict(deliverables_for(result)).get(deliverable)
        if tables is None:
            known = [name for name, _ in deliverables_for(result)]
            raise ValueError(
                f"job {job_id} does not feed deliverable "
                f"{deliverable!r} (it feeds: {', '.join(known)})")
        renderer = get_renderer(fmt)
        text = render_many(tables, fmt)
        if not text.endswith("\n"):
            text += "\n"
        types = {"md": "text/markdown; charset=utf-8",
                 "html": "text/html; charset=utf-8",
                 "csv": "text/csv; charset=utf-8",
                 "text": "text/plain; charset=utf-8"}
        return text, types.get(renderer.format,
                               "text/plain; charset=utf-8")

    # -- shard ingestion -----------------------------------------------------

    def ingest_shard(self, payload: Dict[str, object]
                     ) -> Dict[str, object]:
        """File one pushed ``repro-campaign/1`` shard (idempotent).

        ``payload``: ``{"artifact": <repro-campaign/1 dict>,
        "debugger": name, "programs": {seed: source}?,
        "fingerprints": {seed: module fp}?}``.  Duplicate pushes are
        exact no-ops; a shard that disagrees with stored bytes (result
        payloads, program fingerprints, or module fingerprints) raises
        :class:`~repro.store.StoreError`.
        """
        try:
            artifact = payload["artifact"]
            debugger = payload["debugger"]
        except KeyError as error:
            raise ValueError(f"shard push is missing field "
                             f"{error.args[0]!r}") from None
        result = CampaignResult.from_dict(artifact)
        before = self.store.stats.misses
        run_ids = self.store.ingest(result, debugger=debugger)
        for seed, source in dict(payload.get("programs", {})).items():
            self.store.add_program(int(seed), source)
        for seed, fingerprint in dict(
                payload.get("fingerprints", {})).items():
            self.store.record_module_fingerprint(int(seed),
                                                 str(fingerprint))
        stored = self.store.stats.misses - before
        return {"runs": run_ids, "results": len(result.programs),
                "stored": stored,
                "duplicates": len(result.programs) - stored}
