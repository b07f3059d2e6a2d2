"""BENCH_serve — what the long-running campaign service costs over the
serial driver, and what its store buys on restart.

Three timed passes over one seed pool (gcc trunk x gdb-like, all
levels):

* *serial* — the reference ``run_campaign`` pass, no store, no HTTP;
* *served* — the same pool end-to-end through the service: HTTP
  submission, bounded-window scheduling over worker threads, streamed
  store writes, HTTP artifact fetch.  The artifact must be
  byte-identical to the serial pass (the service is a deployment of
  the campaign, never a fork of its results);
* *replay* — a second service incarnation over the same store
  assembling the finished job's artifact purely from stored rows
  (zero recompiles, observed through the store's own hit/miss
  counters — structural, not timing-based).

The one timing floor (``min_serve_programs_per_sec`` in
``bench_floor.json``) guards end-to-end served throughput; like every
floor here it is waivable on noisy runners with
``REPRO_BENCH_STRICT=0`` while the differential assertions stay live.
"""

import json
import os
import threading
import time

from repro.compilers.compiler import CompilerSpec
from repro.debugger.specs import DebuggerSpec
from repro.fuzz.generator import generate_validated
from repro.pipeline.campaign import run_campaign
from repro.serve import CampaignService, ServiceClient, build_server

from conftest import banner, pool_size, record_serve_bench

CPUS = os.cpu_count() or 1

FLOOR_PATH = os.path.join(os.path.dirname(__file__), "bench_floor.json")

#: Waivable on noisy shared runners; the JSON is still emitted.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

POOL = pool_size(12)
WORKERS = min(2, CPUS)


def _serve(store_path, run_job):
    """One service incarnation around ``run_job(service, client)``."""
    service = CampaignService(store_path, workers=WORKERS,
                              unit_seeds=2, poll=0.01)
    service.start()
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    host, port = server.server_address
    client = ServiceClient(f"http://{host}:{port}")
    try:
        return run_job(service, client)
    finally:
        server.shutdown()
        server.server_close()
        service.drain()
        service.close()


def test_serve_throughput(benchmark, tmp_path):
    store_path = str(tmp_path / "serve.sqlite")
    job = {"schema": "repro-job/1", "family": "gcc",
           "seed_base": 0, "pool_size": POOL}
    timings = {}

    def serve_fresh(service, client):
        started = time.perf_counter()
        submitted = client.submit(job)
        status = client.wait(submitted["job"], timeout=600.0)
        artifact = client.artifact(submitted["job"])
        timings["served"] = time.perf_counter() - started
        assert status["state"] == "done", status
        return submitted["job"], artifact

    def replay(service, client):
        # Assembled on this thread's store connection, so the
        # zero-recompile claim reads off its counters directly.
        store = service.store
        before = (store.stats.hits, store.stats.misses)
        started = time.perf_counter()
        artifact = service.job_artifact(job_id)
        timings["replay"] = time.perf_counter() - started
        counters = (store.stats.hits - before[0],
                    store.stats.misses - before[1])
        return artifact, counters

    def run():
        started = time.perf_counter()
        serial = run_campaign(
            CompilerSpec(family="gcc", version="trunk").build(),
            DebuggerSpec(name="gdb-like").build(), pool_size=POOL)
        timings["serial"] = time.perf_counter() - started
        # The service's worker threads share this process's program
        # LRU, which the serial pass just warmed; clear it so the served
        # pass regenerates its programs as a fresh service would.
        generate_validated.cache_clear()
        served = _serve(store_path, serve_fresh)
        return serial, served

    serial, (job_id, served) = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    replayed, counters = _serve(store_path, replay)

    serial_rate = POOL / timings["serial"]
    serve_rate = POOL / timings["served"]
    overhead_pct = 100.0 * (timings["served"] / timings["serial"] - 1.0)

    record_serve_bench(
        pool=POOL,
        workers=WORKERS,
        cpus=CPUS,
        serial_seconds=round(timings["serial"], 3),
        served_seconds=round(timings["served"], 3),
        replay_seconds=round(timings["replay"], 3),
        serial_programs_per_sec=round(serial_rate, 2),
        serve_programs_per_sec=round(serve_rate, 2),
        serve_overhead_pct=round(overhead_pct, 1),
        replay_hits=counters[0],
        replay_misses=counters[1],
    )

    print(banner(f"Campaign service ({POOL} programs, {WORKERS} "
                 f"workers, {CPUS} cpus)"))
    print(f"  serial  {timings['serial']:7.2f}s "
          f"({serial_rate:6.2f} programs/sec, in-process)")
    print(f"  served  {timings['served']:7.2f}s "
          f"({serve_rate:6.2f} programs/sec end-to-end over HTTP, "
          f"{overhead_pct:+.1f}%)")
    print(f"  replay  {timings['replay']:7.2f}s "
          f"(restarted service, {counters[0]} store hits, "
          f"{counters[1]} recompiles)")

    # The differential contract, independent of machine speed: served
    # and replayed artifacts are byte-identical to the serial one, and
    # the restart recomputed nothing.
    expected = serial.to_json(indent=2)
    assert json.dumps(served, indent=2, sort_keys=True) == expected
    assert json.dumps(replayed, indent=2, sort_keys=True) == expected
    assert counters == (POOL, 0), "replay must not recompute"

    if STRICT:
        with open(FLOOR_PATH, encoding="utf-8") as handle:
            floor = json.load(handle)["min_serve_programs_per_sec"]
        assert serve_rate >= floor, \
            (f"served campaign at {serve_rate:.2f} programs/sec "
             f"(floor {floor:.1f})")
