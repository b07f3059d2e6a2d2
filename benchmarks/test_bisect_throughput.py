"""BENCH_bisect — version-axis bisection throughput and probe reuse.

One timed pass per stage over one seed pool and one cell (gcc trunk x
gdb-like): the *find* campaign that produces the witnesses, a *fresh*
serial bisection of every witness (also populating a store file), and
a store-backed *replay* of the same bisection (every witness a
``results`` hit — zero probes, the regression table for free).

The quality bar here is probe amortization, not wall-clock: the
prober memoizes verdicts by ``(module_fingerprint, version)``, so
firing questions the searches repeat (shared full verdicts during
discovery, re-consulted boundary versions across defects of one
witness) must be answered from memo.  ``probe_reuse`` — memo hits
over consults — is a deterministic ratio of the pool, so the
``min_bisect_probe_reuse`` floor is machine-independent and enforced
even on noisy runners unless ``REPRO_BENCH_STRICT=0``.
"""

import json
import os
import time

from repro import Compiler, GdbLike
from repro.bisect import run_bisect_campaign
from repro.pipeline import run_campaign
from repro.store import CampaignStore

from conftest import banner, pool_size, record_bisect_bench

CPUS = os.cpu_count() or 1

FLOOR_PATH = os.path.join(os.path.dirname(__file__), "bench_floor.json")

#: Waivable on noisy shared runners; the JSON is still emitted.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

POOL = pool_size(12)


def test_bisect_throughput(benchmark, tmp_path):
    path = str(tmp_path / "bisect.sqlite")
    timings = {}

    def run():
        started = time.perf_counter()
        campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                                pool_size=POOL)
        timings["find"] = time.perf_counter() - started

        started = time.perf_counter()
        with CampaignStore(path) as store:
            fresh = run_bisect_campaign(campaign, store=store)
            stored = store.stats.misses
        timings["bisect"] = time.perf_counter() - started

        started = time.perf_counter()
        with CampaignStore(path) as store:
            replay = run_bisect_campaign(campaign, store=store)
            reused = store.stats.hits
        timings["replay"] = time.perf_counter() - started
        return fresh, replay, stored, reused

    fresh, replay, stored, reused = benchmark.pedantic(
        run, rounds=1, iterations=1)

    stats = fresh.stats
    probe_reuse = stats["memo_hits"] / max(1, stats["consults"])
    witnesses = fresh.witnesses
    bisect_rate = witnesses / timings["bisect"]
    replay_speedup = (timings["bisect"] / timings["replay"]
                      if timings["replay"] else float("inf"))

    record_bisect_bench(
        pool=POOL,
        cpus=CPUS,
        find_seconds=round(timings["find"], 3),
        bisect_seconds=round(timings["bisect"], 3),
        replay_seconds=round(timings["replay"], 3),
        witnesses=witnesses,
        records=len(fresh.records),
        consults=stats["consults"],
        probes=stats["probes"],
        memo_hits=stats["memo_hits"],
        probe_reuse=round(probe_reuse, 3),
        witnesses_per_sec=round(bisect_rate, 2),
        replay_speedup=round(replay_speedup, 2),
    )

    print(banner(f"Version bisection ({POOL} programs, {CPUS} cpus)"))
    print(f"  find    {timings['find']:7.2f}s ({POOL} programs)")
    print(f"  bisect  {timings['bisect']:7.2f}s ({witnesses} witnesses, "
          f"{len(fresh.records)} windows, {stats['probes']} probes)")
    print(f"  replay  {timings['replay']:7.2f}s "
          f"({replay_speedup:.1f}x, zero probes)")
    print(f"  probe reuse: {stats['memo_hits']}/{stats['consults']} "
          f"consults from memo ({probe_reuse:.1%})")

    # Structural contracts, independent of machine speed: the
    # accounting identity, full store coverage, and a replay that is
    # bit-identical without recomputing a single window.
    assert stats["consults"] == stats["probes"] + stats["memo_hits"]
    assert stored == witnesses and reused == witnesses
    assert replay.to_json() == fresh.to_json(), \
        "replayed bisection must be bit-identical to the fresh run"
    assert replay.stats == stats, \
        "replay must report the fresh run's probe accounting"

    if STRICT:
        with open(FLOOR_PATH, encoding="utf-8") as handle:
            floor = json.load(handle)["min_bisect_probe_reuse"]
        assert probe_reuse >= floor, \
            (f"bisection probe reuse at {probe_reuse:.3f} "
             f"(floor {floor:.2f})")
