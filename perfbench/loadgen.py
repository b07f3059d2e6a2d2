"""The ``serve`` workload: an open-loop generator against ``repro-serve``.

The service runs in its own process (``serve_launcher.py``, 2 worker
threads, a fresh store in a temporary directory).  This process submits
single-seed, single-cell ``repro-job/1`` jobs on a fixed schedule,
alternating gcc/gdb-like and clang/lldb-like; every fourth submission
repeats the fresh job sent three slots earlier, which has normally
finished by then, so the store replays it.  Two threads, one request
each at a time: the main thread sends every submission at its due time
whatever the service is doing, and a poller sweeps the unfinished jobs
every ``POLL_S`` seconds and fetches each artifact as soon as its job is
done.  A job's latency runs from its due time to its artifact in hand,
so a late send is charged to the service, and ``lag_max_s`` says how
late the generator ran.  A 503 is a shed job and counts as failed; there
is no retry.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import List, Optional, Tuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: Submissions per second; the fresh jobs keep 2 workers about a third
#: busy at the reference build.
RATE = workloads.UNITS_PER_S["serve"]
#: Seconds between two sweeps of the poller.
POLL_S = 0.01
#: Every DUP_EVERY-th submission repeats an earlier job.
DUP_EVERY = 4
#: Seconds the service may take to start, drain, or finish the jobs.
PATIENCE_S = 60.0


class Job:
    def __init__(self, index: int, item: dict, original: Optional["Job"]):
        self.index = index
        self.item = item
        self.original = original
        self.due = 0.0
        self.sent = 0.0
        self.submitted = 0.0
        self.progressed: Optional[float] = None
        self.finished: Optional[float] = None
        self.artifact_s: Optional[float] = None
        self.job_id = ""
        self.state = "unsent"
        self.body = b""

    def ok(self) -> bool:
        if self.state != "done" or self.finished is None:
            return False
        if self.original is not None:
            return self.body == self.original.body
        return (hashlib.sha256(self.body).hexdigest()
                == self.item["digest"])


def request(port: int, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def schedule(corpus: dict, seed: int, count: int) -> List[Job]:
    """``count`` submissions; the fresh ones alternate families, each
    family's a stratified sample of its sealed jobs."""
    rng = random.Random(seed)
    fresh_total = count - count // DUP_EVERY
    fresh = {}
    for turn, family in enumerate(("gcc", "clang")):
        items = [item for item in corpus["serve"]
                 if item["family"] == family]
        fresh[family] = iter(workloads.stratified_sample(
            items, (fresh_total + 1 - turn) // 2, rng))
    jobs: List[Job] = []
    fresh_count = 0
    for index in range(count):
        if index % DUP_EVERY == DUP_EVERY - 1:
            original = jobs[index - DUP_EVERY + 1]
            jobs.append(Job(index, original.item, original))
            continue
        family = ("gcc", "clang")[fresh_count % 2]
        fresh_count += 1
        jobs.append(Job(index, next(fresh[family]), None))
    return jobs


def wait_healthy(proc: subprocess.Popen, port_file: str) -> int:
    deadline = time.perf_counter() + PATIENCE_S
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"service exited with {proc.returncode}")
        try:
            with open(port_file, encoding="utf-8") as handle:
                port = int(handle.read().strip())
            if request(port, "GET", "/healthz")[0] == 200:
                return port
        except (OSError, ValueError, http.client.HTTPException):
            pass
        time.sleep(0.005)
    raise RuntimeError("service did not answer /healthz")


def poll(port: int, pending: List[Job], lock: threading.Lock,
         sending: threading.Event, deadline: float) -> None:
    """Sweep unfinished jobs until the sender is done and none is left."""
    while time.perf_counter() < deadline:
        with lock:
            sweep = list(pending)
        if not sweep and not sending.is_set():
            return
        for job in sweep:
            try:
                status, body = request(port, "GET", f"/jobs/{job.job_id}")
                state = json.loads(body)["state"] if status == 200 else ""
                now = time.perf_counter()
                if job.progressed is None and state != "queued":
                    job.progressed = now
                if state in ("done", "failed", "expired"):
                    status, job.body = request(
                        port, "GET", f"/jobs/{job.job_id}/artifact")
                    job.finished = time.perf_counter()
                    job.artifact_s = job.finished - now
                    job.state = state if status == 200 else f"http {status}"
                elif status != 200:
                    job.state = f"http {status}"
            except (OSError, ValueError, http.client.HTTPException) as error:
                job.state = f"error {error}"
            if job.state != "running":
                with lock:
                    pending.remove(job)
        time.sleep(POLL_S)


def drive(port: int, jobs: List[Job]) -> Tuple[float, dict]:
    """Send every job on schedule; returns (start, submit-side stats)."""
    pending: List[Job] = []
    lock = threading.Lock()
    sending = threading.Event()
    sending.set()
    start = time.perf_counter() + 0.05
    deadline = start + len(jobs) / RATE + PATIENCE_S
    poller = threading.Thread(target=poll, name="poller",
                              args=(port, pending, lock, sending, deadline))
    poller.start()
    shed = 0
    try:
        for job in jobs:
            job.due = start + job.index / RATE
            delay = job.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            job.sent = time.perf_counter()
            spec = workloads.serve_job(job.item["family"], job.item["seed"])
            try:
                status, body = request(port, "POST", "/jobs",
                                       json.dumps(spec).encode("utf-8"))
            except (OSError, http.client.HTTPException) as error:
                job.state = f"error {error}"
                continue
            job.submitted = time.perf_counter()
            if status == 503:
                shed += 1
                job.state = "shed"
                continue
            if status not in (200, 202):
                job.state = f"http {status}"
                continue
            job.job_id = json.loads(body)["job"]
            job.state = "running"
            with lock:
                pending.append(job)
    finally:
        sending.clear()
        poller.join()
    sent = [job for job in jobs if job.submitted]
    fresh = [job for job in sent if job.original is None and job.progressed]
    stats = {
        "serve.submit_s": _median([j.submitted - j.sent for j in sent]),
        "serve.queue_wait_p50_s": _median(
            [j.progressed - j.submitted for j in fresh]),
        "serve.artifact_s": _median([j.artifact_s for j in jobs
                                     if j.artifact_s is not None]),
        "serve.shed": shed,
        "loadgen.lag_max_s": max(j.sent - j.due for j in jobs),
    }
    return start, stats


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=PATIENCE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run(args, started: float) -> dict:
    corpus = workloads.load_corpus()
    count = workloads.run_size("serve", args.seconds)
    jobs = schedule(corpus, args.seed, count)
    tmp = tempfile.mkdtemp(prefix="serve-")
    port_file = os.path.join(tmp, "port")
    report_file = os.path.join(tmp, "service.json")
    command = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
               "--store", os.path.join(tmp, "store.db"),
               "--port-file", port_file, "--result", report_file]
    if args.trace:
        command.append("--trace")
    with open(os.path.join(tmp, "service.log"), "wb") as log:
        proc = subprocess.Popen(command, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            port = wait_healthy(proc, port_file)
            setup_s = time.perf_counter() - started
            if args.phase == "setup":
                return {"setup_s": setup_s}
            start, stats = drive(port, jobs)
        finally:
            stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"service exited with {proc.returncode}")
    with open(report_file, encoding="utf-8") as handle:
        report = json.load(handle)
    finished = [job.finished for job in jobs if job.finished is not None]
    result = {
        "setup_s": setup_s,
        "wall_s": (max(finished) if finished else time.perf_counter())
        - start,
        "units": [[(job.finished - job.due) if job.finished else None,
                   job.ok()] for job in jobs],
        "extra_failures": 0,
        "rss_mb": report["rss_mb"],
        "loadgen": stats,
    }
    if "trace" in report:
        result["trace"] = report["trace"]
    return result
