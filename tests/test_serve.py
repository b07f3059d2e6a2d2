"""Chaos-under-service: the campaign service survives what the paper's
long campaigns actually hit.

The acceptance bar (ISSUE PR 10): a served campaign must be
*bit-identical* to the serial driver's artifact for the same seed
range — through duplicate submissions, shed load, dropped connections,
truncated responses, stalled workers, hard kills and restarts.  Every
test here drives one of those failure modes against the real store and
asserts the differential: same bytes, zero recompiles for stored
seeds, duplicate writes exact no-ops.
"""

import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.compilers.compiler import CompilerSpec
from repro.debugger.specs import DebuggerSpec
from repro.faults import PERSISTENT, FaultPlan, FaultSpec
from repro.pipeline.campaign import run_campaign
from repro.serve import (
    AdmissionQueue, CampaignService, ClientError, JobSpec,
    ServiceClient, ServiceOverloaded, build_server,
)
from repro.store import (
    BUSY_MAX_ATTEMPTS, CampaignStore, StoreBusyError, StoreError,
    busy_delay,
)

POOL = 6  # programs per in-process service job: fast, multi-unit


def serial_artifact_json(pool_size=POOL, seed_base=0):
    """The reference bytes: what the serial driver writes for the
    range."""
    result = run_campaign(
        CompilerSpec(family="gcc", version="trunk").build(),
        DebuggerSpec(name="gdb-like").build(),
        pool_size=pool_size, seed_base=seed_base)
    return result.to_json(indent=2)


def job_payload(pool_size=POOL, seed_base=0, **extra):
    payload = {"schema": "repro-job/1", "family": "gcc",
               "seed_base": seed_base, "pool_size": pool_size}
    payload.update(extra)
    return payload


def wait_for(predicate, timeout=60.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def fast_sleeper(delay):
    time.sleep(min(delay, 0.01))


# -- repro-job/1 --------------------------------------------------------------


def test_job_spec_round_trips_and_id_is_stable():
    spec = JobSpec(family="gcc", seed_base=5, pool_size=20,
                   levels=("O1", "O2"), deadline=30.0)
    clone = JobSpec.from_dict(spec.to_dict())
    assert clone == spec.normalized()
    assert clone.job_id == spec.job_id
    assert len(spec.job_id) == 16
    assert int(spec.job_id, 16) >= 0  # hex digest prefix


def test_job_id_normalizes_the_native_debugger():
    implicit = JobSpec(family="gcc", pool_size=10)
    explicit = JobSpec(family="gcc", pool_size=10, debugger="gdb-like")
    assert implicit.job_id == explicit.job_id
    assert implicit.normalized().debugger == "gdb-like"


def test_job_id_excludes_the_deadline():
    patient = JobSpec(pool_size=10, deadline=600.0)
    hurried = JobSpec(pool_size=10, deadline=1.0)
    assert patient.job_id == hurried.job_id
    assert patient.to_dict()["deadline"] == 600.0
    assert "deadline" not in patient.identity()


def test_job_spec_validation():
    with pytest.raises(ValueError, match="family"):
        JobSpec(family="icc")
    with pytest.raises(ValueError, match="debugger"):
        JobSpec(debugger="windbg")
    with pytest.raises(ValueError, match="pool_size"):
        JobSpec(pool_size=0)
    with pytest.raises(ValueError, match="deadline"):
        JobSpec(deadline=-1.0)
    with pytest.raises(ValueError, match="schema"):
        JobSpec.from_dict({"schema": "repro-job/999", "family": "gcc"})
    with pytest.raises(ValueError, match="pool_size"):
        JobSpec.from_dict({"schema": "repro-job/1", "family": "gcc",
                           "seed_base": 0})


# -- the bounded window -------------------------------------------------------


def test_admission_queue_sheds_at_the_bound():
    queue = AdmissionQueue(2, retry_after=7.0, name="test window")
    queue.offer("a")
    queue.offer("b")
    with pytest.raises(ServiceOverloaded) as caught:
        queue.offer("c")
    assert caught.value.retry_after == 7.0
    assert len(queue) == 2
    assert queue.get() == "a"  # FIFO; shedding lost nothing admitted
    queue.offer("c")
    assert queue.get() == "b"
    assert queue.get() == "c"


def test_admission_queue_blocking_put_times_out_without_space():
    queue = AdmissionQueue(1)
    assert queue.put("a", timeout=0.01) is True
    assert queue.put("b", timeout=0.01) is False
    assert queue.get() == "a"
    assert queue.get(timeout=0.01) is None


def test_admission_queue_requeue_bypasses_the_bound():
    queue = AdmissionQueue(1)
    queue.offer("new")
    queue.requeue("retried")  # admitted once already: never shed
    assert len(queue) == 2
    assert queue.get() == "retried"  # and served first


def test_admission_queue_drain_sheds_producers_serves_consumers():
    queue = AdmissionQueue(4)
    queue.offer("inside")
    queue.drain()
    with pytest.raises(ServiceOverloaded):
        queue.offer("late")
    assert queue.put("late", timeout=0.01) is False
    assert queue.get() == "inside"  # drain still serves what's in


# -- store busy-retry (satellite: database-is-locked containment) -------------


def test_busy_delay_is_deterministic_capped_and_jittered():
    first = busy_delay("store.db:put_result", 0)
    assert first == busy_delay("store.db:put_result", 0)
    assert first != busy_delay("store.db:put_failure", 0)
    for attempt in range(12):
        delay = busy_delay("t", attempt)
        assert 0.0 < delay <= 0.5 * 1.5  # cap x max jitter factor
    # Exponential growth up to the cap (jitter is at most +/-50%).
    assert busy_delay("t", 8) > busy_delay("t", 0)


class _FlakyConn:
    """A connection proxy that raises 'database is locked' for the
    first ``failures`` execute() calls, then delegates."""

    def __init__(self, conn, failures, message="database is locked"):
        self._conn = conn
        self.failures = failures
        self.message = message

    def execute(self, *args, **kwargs):
        if self.failures > 0:
            self.failures -= 1
            raise sqlite3.OperationalError(self.message)
        return self._conn.execute(*args, **kwargs)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_store_write_retries_through_lock_contention(tmp_path):
    store = CampaignStore(str(tmp_path / "busy.db"))
    slept = []
    store._busy_sleep = slept.append
    store._conn = _FlakyConn(store._conn, failures=2)
    assert store.put_job("aaaa", {"schema": "repro-job/1"}) is True
    assert len(slept) == 2  # two contended attempts, two backoffs
    assert slept == [busy_delay(f"{store.path}:put_job", 0),
                     busy_delay(f"{store.path}:put_job", 1)]
    assert store.get_job("aaaa")["state"] == "queued"
    store.close()


def test_store_open_retries_through_lock_contention(tmp_path,
                                                   monkeypatch):
    checks = []
    real_check = CampaignStore._check_schema

    def contended_once(store):
        checks.append(store.path)
        if len(checks) == 1:
            raise sqlite3.OperationalError("database is locked")
        return real_check(store)

    monkeypatch.setattr(CampaignStore, "_check_schema", contended_once)
    store = CampaignStore(str(tmp_path / "busy.db"))
    assert len(checks) == 2  # one contended open, one retry
    assert store.put_job("aaaa", {"schema": "repro-job/1"}) is True
    store.close()


def test_store_gives_up_with_typed_error_after_the_budget(tmp_path):
    store = CampaignStore(str(tmp_path / "busy.db"))
    store.busy_attempts = 3
    store._busy_sleep = lambda delay: None
    store._conn = _FlakyConn(store._conn, failures=99)
    with pytest.raises(StoreBusyError, match="gave up after 3"):
        store.put_job("aaaa", {"schema": "repro-job/1"})
    assert issubclass(StoreBusyError, StoreError)
    assert store.busy_attempts == 3 and BUSY_MAX_ATTEMPTS >= 3


def test_store_does_not_retry_non_contention_errors(tmp_path):
    store = CampaignStore(str(tmp_path / "busy.db"))
    slept = []
    store._busy_sleep = slept.append
    store._conn = _FlakyConn(store._conn, failures=1,
                             message="attempt to write a readonly "
                                     "database")
    with pytest.raises(sqlite3.OperationalError, match="readonly"):
        store.put_job("aaaa", {"schema": "repro-job/1"})
    assert slept == []  # a real failure is not worth backoff
    store.close()


# -- the job ledger -----------------------------------------------------------


def test_job_ledger_is_idempotent_and_flags_divergence(tmp_path):
    store = CampaignStore(str(tmp_path / "jobs.db"))
    spec = JobSpec(pool_size=10).normalized()
    assert store.put_job(spec.job_id, spec.identity()) is True
    assert store.put_job(spec.job_id, spec.identity()) is False
    with pytest.raises(StoreError):
        store.put_job(spec.job_id, {"schema": "repro-job/1",
                                    "pool_size": 999})
    store.set_job_state(spec.job_id, "running", "1/5 units")
    row = store.get_job(spec.job_id)
    assert (row["state"], row["detail"]) == ("running", "1/5 units")
    other = JobSpec(pool_size=20).normalized()
    store.put_job(other.job_id, other.identity())
    store.set_job_state(other.job_id, "done", "")
    assert [r["job"] for r in store.jobs_in_state("running")] == \
        [spec.job_id]
    assert len(store.jobs_in_state()) == 2
    assert len(store.jobs_in_state("queued", "running")) == 1
    store.close()


# -- the service, happy path: served == serial, byte for byte -----------------


@pytest.fixture
def service(tmp_path):
    service = CampaignService(str(tmp_path / "serve.db"), workers=2,
                              unit_seeds=2, poll=0.01)
    service.start()
    yield service
    service.drain()
    service.close()


def test_served_artifact_is_byte_identical_to_serial(service):
    job_id, created = service.submit(job_payload())
    assert created is True
    assert wait_for(lambda: service.job_status(job_id)["state"]
                    == "done")
    served = json.dumps(service.job_artifact(job_id), indent=2,
                        sort_keys=True)
    assert served == serial_artifact_json()


def test_served_artifact_under_faults_equals_serial(tmp_path):
    # A recovered seed's failure record is stored with its result and
    # served with it; a quarantined seed is served as its record.
    plan = FaultPlan(seed=5, specs=(
        FaultSpec(kind="error", stage="compile", seeds=(1,), count=1),
        FaultSpec(kind="error", stage="generate", seeds=(2,),
                  count=PERSISTENT)))
    service = CampaignService(str(tmp_path / "serve.db"), workers=2,
                              unit_seeds=2, poll=0.01, faults=plan)
    service.start()
    try:
        job_id, _ = service.submit(job_payload())
        assert wait_for(lambda: service.job_status(job_id)["state"]
                        == "done")
        served = service.job_result(job_id)
    finally:
        service.drain()
        service.close()
    assert {(r.seed, r.status) for r in served.failures} == \
        {(1, "recovered"), (2, "quarantined")}
    serial = run_campaign(
        CompilerSpec(family="gcc", version="trunk").build(),
        DebuggerSpec(name="gdb-like").build(), pool_size=POOL,
        faults=plan)
    assert served.to_json(indent=2) == serial.to_json(indent=2)


def test_duplicate_submission_is_a_no_op(service):
    job_id, created = service.submit(job_payload())
    assert created is True
    again, created = service.submit(job_payload())
    assert (again, created) == (job_id, False)
    # Same work under an explicit native debugger: same job.
    alias, created = service.submit(job_payload(debugger="gdb-like"))
    assert (alias, created) == (job_id, False)
    assert wait_for(lambda: service.job_status(job_id)["state"]
                    == "done")
    assert len(service.jobs()) == 1


def test_finished_job_replays_from_the_store_at_zero_recompiles(
        tmp_path, service):
    job_id, _ = service.submit(job_payload())
    assert wait_for(lambda: service.job_status(job_id)["state"]
                    == "done")
    service.drain()
    service.close()
    # A fresh incarnation over the same store: nothing to recover
    # (the job is terminal), and its artifact assembles purely from
    # stored rows — the zero-recompile half of the differential.
    revived = CampaignService(service.store_path, workers=1, poll=0.01)
    try:
        assert revived.start() == 0
        store = revived.store
        before = (store.stats.hits, store.stats.misses)
        artifact = json.dumps(revived.job_artifact(job_id), indent=2,
                              sort_keys=True)
        assert artifact == serial_artifact_json()
        assert store.stats.hits - before[0] == POOL
        assert store.stats.misses == before[1]
    finally:
        revived.drain()
        revived.close()


def test_unfinished_artifact_and_unknown_job_raise(service):
    from repro.serve import JobNotFinished, JobNotFound
    with pytest.raises(JobNotFound):
        service.job_status("feedfacefeedface")
    gate = threading.Event()
    slow = CampaignService(service.store_path + ".slow", workers=1,
                           poll=0.01,
                           evaluator=lambda unit, store: gate.wait(30))
    slow.start()
    try:
        job_id, _ = slow.submit(job_payload(pool_size=4))
        with pytest.raises(JobNotFinished):
            slow.job_artifact(job_id)
    finally:
        gate.set()
        slow.drain()
        slow.close()


def test_drain_sheds_new_submissions(service):
    service.drain()
    with pytest.raises(ServiceOverloaded):
        service.submit(job_payload())


# -- HTTP + client ------------------------------------------------------------


@pytest.fixture
def http_service(tmp_path):
    """A served CampaignService plus a retrying client, torn down in
    order (server, then scheduler, then stores)."""
    service = CampaignService(str(tmp_path / "http.db"), workers=2,
                              unit_seeds=2, poll=0.01)
    service.start()
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    host, port = server.server_address
    client = ServiceClient(f"http://{host}:{port}",
                           sleeper=fast_sleeper)
    yield service, server, client
    server.shutdown()
    server.server_close()
    service.drain()
    service.close()


def test_http_submit_wait_artifact_matches_serial(http_service):
    _, _, client = http_service
    created = client.submit(job_payload())
    assert created["created"] is True
    status = client.wait(created["job"], timeout=90)
    assert status["state"] == "done"
    served = json.dumps(client.artifact(created["job"]), indent=2,
                        sort_keys=True)
    assert served == serial_artifact_json()
    duplicate = client.submit(job_payload())
    assert duplicate["created"] is False
    assert duplicate["job"] == created["job"]
    health = client.health()
    assert health["workers"] == 2
    assert health["jobs"]["done"] >= 1


def test_http_report_renders_a_finished_job(http_service):
    _, _, client = http_service
    job = client.submit(job_payload())["job"]
    client.wait(job, timeout=90)
    text = client.report("table1", job, fmt="md")
    assert "O1" in text and "|" in text  # a rendered Markdown table
    with pytest.raises(ClientError) as caught:
        client.report("table99", job)
    assert caught.value.status == 400


def test_http_error_codes(http_service):
    _, _, client = http_service
    with pytest.raises(ClientError) as caught:
        client.job("feedfacefeedface")
    assert caught.value.status == 404
    with pytest.raises(ClientError) as caught:
        client.request("POST", "/jobs", payload={"schema": "bogus"})
    assert caught.value.status == 400
    with pytest.raises(ClientError) as caught:
        client.request("GET", "/nope")
    assert caught.value.status == 404


# -- load shedding: 503 + Retry-After, then success ---------------------------


def test_http_sheds_with_503_then_accepts_after_release(tmp_path):
    gate = threading.Event()
    service = CampaignService(
        str(tmp_path / "shed.db"), workers=1, window=1, max_jobs=1,
        unit_seeds=1, poll=0.01,
        evaluator=lambda unit, store: gate.wait(30))
    service.start()
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    host, port = server.server_address
    from repro.pipeline.parallel import RetryPolicy
    impatient = ServiceClient(
        f"http://{host}:{port}", sleeper=fast_sleeper,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.001))
    try:
        # Wedge the only worker, fill the unit window and the job
        # backlog: submissions 1 and 2 are absorbed...
        first = impatient.submit(job_payload(pool_size=3))
        assert first["created"] is True
        assert wait_for(lambda: len(service.scheduler.jobs_queue) == 0)
        second = impatient.submit(job_payload(seed_base=100,
                                              pool_size=3))
        assert second["created"] is True
        # ...and the third is shed: every attempt of the impatient
        # client's bounded retry budget answers 503.
        from repro.serve import ServiceUnavailable
        with pytest.raises(ServiceUnavailable, match="503"):
            impatient.submit(job_payload(seed_base=200, pool_size=1))
        # Releasing the gate drains the backlog; a patient client's
        # retried submission of the same shed job then lands.
        gate.set()
        patient = ServiceClient(f"http://{host}:{port}",
                                sleeper=fast_sleeper)
        third = patient.submit(job_payload(seed_base=200, pool_size=1))
        assert patient.wait(third["job"], timeout=30)["state"] == "done"
    finally:
        gate.set()
        server.shutdown()
        server.server_close()
        service.drain()
        service.close()


def test_shed_response_carries_retry_after(tmp_path):
    gate = threading.Event()
    service = CampaignService(
        str(tmp_path / "ra.db"), workers=1, window=1, max_jobs=1,
        unit_seeds=1, poll=0.01, retry_after=4.0,
        evaluator=lambda unit, store: gate.wait(30))
    service.start()
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        client = ServiceClient(f"http://{host}:{port}",
                               sleeper=fast_sleeper)
        client.submit(job_payload(pool_size=3))
        assert wait_for(lambda: len(service.scheduler.jobs_queue) == 0)
        client.submit(job_payload(seed_base=100, pool_size=3))
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen
        request = Request(
            f"http://{host}:{port}/jobs", method="POST",
            data=json.dumps(job_payload(seed_base=200,
                                        pool_size=1)).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(HTTPError) as caught:
            urlopen(request, timeout=10)
        assert caught.value.code == 503
        assert int(caught.value.headers["Retry-After"]) == 4
        caught.value.read()
    finally:
        gate.set()
        server.shutdown()
        server.server_close()
        service.drain()
        service.close()


# -- idempotent shard ingestion -----------------------------------------------


def _shard_payload(pool_size=4, seed_base=0):
    result = run_campaign(
        CompilerSpec(family="gcc", version="trunk").build(),
        DebuggerSpec(name="gdb-like").build(),
        pool_size=pool_size, seed_base=seed_base)
    return {"artifact": result.to_dict(), "debugger": "gdb-like"}


def test_double_posted_shard_changes_no_stored_bytes(http_service):
    service, _, client = http_service
    shard = _shard_payload()
    first = client.ingest(shard)
    assert first["results"] == 4
    assert first["stored"] == 4
    assert first["duplicates"] == 0
    service.store.checkpoint()  # flush the WAL so file bytes settle
    with open(service.store_path, "rb") as handle:
        before = handle.read()
    second = client.ingest(shard)  # the duplicate POST
    assert second["stored"] == 0
    assert second["duplicates"] == 4
    service.store.checkpoint()
    with open(service.store_path, "rb") as handle:
        after = handle.read()
    assert before == after  # exact no-op, byte for byte


def test_divergent_shard_is_refused_with_409(http_service):
    _, _, client = http_service
    shard = _shard_payload()
    client.ingest(shard)
    mutated = json.loads(json.dumps(shard))
    mutated["artifact"]["programs"][0]["fired"] = {"O1": ["bogus-1"]}
    with pytest.raises(ClientError) as caught:
        client.ingest(mutated)
    assert caught.value.status == 409


def test_ingested_shard_feeds_a_submitted_job(http_service):
    _, _, client = http_service
    client.ingest(_shard_payload(pool_size=POOL))
    job = client.submit(job_payload())["job"]
    status = client.wait(job, timeout=90)
    assert status["state"] == "done"
    served = json.dumps(client.artifact(job), indent=2, sort_keys=True)
    assert served == serial_artifact_json()


# -- supervision: stalls, respawns, deadlines ---------------------------------


def test_stalled_worker_is_respawned_and_the_job_finishes(tmp_path):
    stall = threading.Event()   # wedges exactly the first evaluation
    first = threading.Lock()
    state = {"stalled": False}

    def evaluator(unit, store):
        with first:
            stall_me = not state["stalled"]
            state["stalled"] = True
        if stall_me:
            stall.wait(30)
        # Replacement attempts succeed instantly (no store writes
        # needed: job completion is tracked at unit granularity).

    service = CampaignService(
        str(tmp_path / "stall.db"), workers=1, unit_seeds=2,
        stall_timeout=0.1, poll=0.01, evaluator=evaluator)
    service.start()
    try:
        job_id, _ = service.submit(job_payload(pool_size=4))
        assert wait_for(lambda: service.job_status(job_id)["state"]
                        == "done", timeout=30)
        health = service.health()
        assert health["workers_respawned"] >= 1
        assert health["units_requeued"] >= 1
    finally:
        stall.set()  # unwedge the abandoned thread so it can exit
        service.drain()
        service.close()


def test_stall_past_the_retry_budget_quarantines_not_wedges(tmp_path):
    from repro.pipeline.parallel import RetryPolicy
    forever = threading.Event()
    service = CampaignService(
        str(tmp_path / "wedge.db"), workers=1, unit_seeds=2,
        stall_timeout=0.05, poll=0.01,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.001),
        evaluator=lambda unit, store: forever.wait(30))
    service.start()
    try:
        job_id, _ = service.submit(job_payload(pool_size=2))
        assert wait_for(lambda: service.job_status(job_id)["state"]
                        == "failed", timeout=30)
        # The abandoned seeds surface as quarantined worker-stage
        # failure records in the artifact, not as a wedged job.
        artifact = service.job_artifact(job_id)
        kinds = {(f["stage"], f["kind"], f["status"])
                 for f in artifact["failures"]}
        assert kinds == {("worker", "crash", "quarantined")}
        assert len(artifact["failures"]) == 2
    finally:
        forever.set()
        service.drain()
        service.close()


def test_job_past_its_deadline_expires(tmp_path):
    gate = threading.Event()
    service = CampaignService(
        str(tmp_path / "deadline.db"), workers=1, unit_seeds=1,
        stall_timeout=60.0, poll=0.01,
        evaluator=lambda unit, store: gate.wait(30))
    service.start()
    try:
        job_id, _ = service.submit(job_payload(pool_size=4,
                                               deadline=0.05))
        assert wait_for(lambda: service.job_status(job_id)["state"]
                        == "expired", timeout=30)
    finally:
        gate.set()
        service.drain()
        service.close()


# -- deterministic service faults ---------------------------------------------


def test_client_retries_through_dropped_and_truncated_responses(
        tmp_path):
    # Ordinals 0-2: connection dropped before any response byte.
    # Ordinal 3: response truncated mid-stream.  The idempotent
    # service makes the client's blind retries safe.
    plan = FaultPlan(specs=(
        FaultSpec(kind="service", stage="accept", seeds=(0, 1, 2)),
        FaultSpec(kind="service", stage="respond", seeds=(3,)),
    ))
    service = CampaignService(str(tmp_path / "chaos.db"), workers=2,
                              unit_seeds=2, poll=0.01)
    service.start()
    server = build_server(service, faults=plan)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    host, port = server.server_address
    client = ServiceClient(f"http://{host}:{port}",
                           sleeper=fast_sleeper)
    try:
        created = client.submit(job_payload())
        assert created["job"] == JobSpec(pool_size=POOL).job_id
        status = client.wait(created["job"], timeout=90)
        assert status["state"] == "done"
        served = json.dumps(client.artifact(created["job"]), indent=2,
                            sort_keys=True)
        assert served == serial_artifact_json()
        # The chaos actually happened: at least 5 requests served
        # (3 dropped + 1 truncated + the retries that landed).
        assert server._ordinal >= 5
    finally:
        server.shutdown()
        server.server_close()
        service.drain()
        service.close()


def test_slow_loris_connection_is_dropped_not_serviced(http_service):
    from repro.serve.http import REQUEST_TIMEOUT
    assert REQUEST_TIMEOUT <= 30.0  # bounded: no unkillable socket
    _, server, client = http_service
    host, port = server.server_address
    # A client that sends half a request line and stalls only ties up
    # its own socket: the service keeps answering others meanwhile.
    loris = socket.create_connection((host, port), timeout=5)
    try:
        loris.sendall(b"POST /jobs HT")  # ...never finishes the line
        assert client.health()["workers"] == 2
        job = client.submit(job_payload(pool_size=2))["job"]
        assert client.wait(job, timeout=90)["state"] == "done"
    finally:
        loris.close()


# -- the chaos differential: kill, restart, resume, compare -------------------


SERVE_ARGV = [sys.executable, "-m", "repro.serve.cli", "run",
              "--workers", "2", "--unit-seeds", "2", "--quiet"]


def _serve_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_service(tmp_path, store_path):
    port_file = tmp_path / f"port.{time.monotonic_ns()}"
    argv = SERVE_ARGV + ["--store", store_path,
                         "--port-file", str(port_file)]
    process = subprocess.Popen(argv, env=_serve_env(),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
    assert wait_for(port_file.exists, timeout=30), "service never bound"
    time.sleep(0.05)  # the port file write is atomic-enough; settle
    port = int(port_file.read_text().strip())
    client = ServiceClient(f"http://127.0.0.1:{port}",
                           sleeper=fast_sleeper)
    assert wait_for(lambda: _healthy(client), timeout=30)
    return process, client


def _healthy(client):
    try:
        return "workers" in client.health()
    except Exception:
        return False


def _stored_results(store_path):
    if not os.path.exists(store_path):
        return 0
    with CampaignStore(store_path) as store:
        runs = store.runs()
        return store.result_count(runs[0].id) if runs else 0


def test_kill_dash_nine_restart_resumes_bit_identically(tmp_path):
    """The acceptance differential: SIGKILL mid-campaign, restart,
    resume — the artifact equals the serial no-fault run's bytes, and
    the surviving seeds are replayed, not recomputed."""
    pool = 8
    expected = serial_artifact_json(pool_size=pool)
    store_path = str(tmp_path / "killed.db")
    process, client = _start_service(tmp_path, store_path)
    try:
        job = client.submit(job_payload(pool_size=pool))["job"]
        # Let some seeds land durably, then kill without warning.
        assert wait_for(lambda: _stored_results(store_path) >= 2,
                        timeout=60), "no seeds stored before the kill"
        process.kill()
        process.communicate(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    survivors = _stored_results(store_path)
    assert survivors >= 2
    with CampaignStore(store_path) as store:
        run = store.runs()[0].id
        before = {seed: store.get_result(run, seed)
                  for seed in range(pool)
                  if store.has_result(run, seed)}

    process, client = _start_service(tmp_path, store_path)
    try:
        status = client.wait(job, timeout=120)
        assert status["state"] == "done"
        served = json.dumps(client.artifact(job), indent=2,
                            sort_keys=True)
        assert served == expected
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr.decode()
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    # The survivors were resumed, not recomputed: their stored payloads
    # are untouched by the second incarnation.
    with CampaignStore(store_path) as store:
        run = store.runs()[0].id
        assert store.result_count(run) == pool
        for seed, payload in before.items():
            assert store.get_result(run, seed) == payload


def test_sigterm_drains_gracefully_and_exits_zero(tmp_path):
    """kill <pid> on the service: admission stops, in-flight units
    finish, exit status 0 — and the next incarnation completes the
    job to the exact serial bytes."""
    pool = 8
    expected = serial_artifact_json(pool_size=pool)
    store_path = str(tmp_path / "drained.db")
    process, client = _start_service(tmp_path, store_path)
    try:
        job = client.submit(job_payload(pool_size=pool))["job"]
        assert wait_for(lambda: _stored_results(store_path) >= 1,
                        timeout=60)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stderr.decode()

    process, client = _start_service(tmp_path, store_path)
    try:
        assert client.wait(job, timeout=120)["state"] == "done"
        served = json.dumps(client.artifact(job), indent=2,
                            sort_keys=True)
        assert served == expected
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
