"""BENCH_faults — what failure containment costs on the fault-free path.

Every campaign seed now evaluates inside a
:class:`~repro.faults.FailureBoundary` (stage probes + a per-pair
try/except); this benchmark pins that tax.  Two timed passes over the
same seed pool and cell (gcc trunk x gdb-like, all levels): one through
the containment boundary (the production path, no fault plan) and one
with the driver's ``FailureBoundary`` monkeypatched to
:class:`PassThroughBoundary`, which calls the evaluation thunk with a
no-op probe and the store write directly — the bare pre-containment
path, with no option in the package.  Both must produce bit-identical
programs — the boundary is transparent when nothing fails — and the
relative overhead must stay under the ``max_faults_overhead_pct`` floor
in ``bench_floor.json`` (waivable with ``REPRO_BENCH_STRICT=0`` like
every other floor here).  Timings are the best of three interleaved
rounds, so one scheduler hiccup cannot fail the bar.
"""

import json
import os
import time

from repro import Compiler, GdbLike
from repro.fuzz import SeedSpec
from repro.pipeline import run_campaign_seeds

from conftest import banner, pool_size, record_faults_bench

FLOOR_PATH = os.path.join(os.path.dirname(__file__), "bench_floor.json")

#: Waivable on noisy shared runners; the JSON is still emitted.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

POOL = pool_size(16)
ROUNDS = 3


def _no_probe(stage):
    return None


class PassThroughBoundary:
    """A ``FailureBoundary`` stand-in that contains nothing: the thunk
    runs once with a no-op probe and exceptions propagate."""

    def __init__(self, cell, **options):
        self.failures = []

    def evaluate(self, seed, thunk, item="", cell=None,
                 initial_stage="generate"):
        return thunk(_no_probe), None

    def store_write(self, seed, thunk, item="", cell=None):
        thunk()
        return True


def test_faults_overhead(benchmark, capsys, monkeypatch):
    compiler = Compiler("gcc", "trunk")
    debugger = GdbLike()
    seeds = SeedSpec(base=0, count=POOL)
    timings = {"contained": [], "bare": []}
    results = {}

    def timed(label):
        started = time.perf_counter()
        result = run_campaign_seeds(compiler, debugger, seeds)
        timings[label].append(time.perf_counter() - started)
        results[label] = result

    def run():
        for _ in range(ROUNDS):
            timed("contained")
            with monkeypatch.context() as patch:
                patch.setattr("repro.pipeline.units.FailureBoundary",
                              PassThroughBoundary)
                timed("bare")
        return results["contained"], results["bare"]

    contained, bare = benchmark.pedantic(run, rounds=1, iterations=1)

    # The boundary is transparent on the fault-free path: identical
    # programs, no failure records.
    assert contained == bare
    assert contained.failures == []

    best = {label: min(series) for label, series in timings.items()}
    overhead_pct = 100.0 * (best["contained"] / best["bare"] - 1.0)
    with open(FLOOR_PATH, encoding="utf-8") as handle:
        ceiling = json.load(handle)["max_faults_overhead_pct"]

    record_faults_bench(
        pool=POOL,
        rounds=ROUNDS,
        contained_sec=round(best["contained"], 4),
        bare_sec=round(best["bare"], 4),
        overhead_pct=round(overhead_pct, 2),
        max_faults_overhead_pct=ceiling,
        strict=STRICT,
    )

    with capsys.disabled():
        print(banner("containment overhead (fault-free path)"))
        print(f"pool {POOL}, best of {ROUNDS}: "
              f"bare {best['bare']:.3f}s, "
              f"contained {best['contained']:.3f}s "
              f"({overhead_pct:+.2f}% vs ceiling {ceiling}%)")

    if STRICT:
        assert overhead_pct <= ceiling, (
            f"containment overhead {overhead_pct:.2f}% exceeds the "
            f"max_faults_overhead_pct floor ({ceiling}%); either the "
            f"boundary grew a hot path or the run was too noisy "
            f"(REPRO_BENCH_STRICT=0 waives)")
