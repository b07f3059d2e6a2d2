"""BENCH_campaign — wall-clock of the Table 1 campaign: serial vs
sharded, and the compile-once matrix vs the per-cell baseline (the
ROADMAP's "fast as the hardware allows" trajectory).

Two measurements land in ``BENCH_campaign.json`` (via conftest's
session-finish hook):

* **serial vs sharded** — the same gcc-trunk campaign through the serial
  driver and across worker processes; results must be bit-identical and
  the sharded run must beat serial (``speedup > 1``) whenever there is
  more than one core to shard across.
* **matrix vs per-cell** — the full (gcc+clang) x all-levels x
  (gdb-like+lldb-like) grid through :func:`run_matrix_campaign` versus
  the per-cell reference — :func:`run_campaign_on_programs` over
  ``generate_validated(seed)`` for each cell, one ``Compiler.compile``
  (resolve, lower, optimize, link) per level — measured in the same run
  on the same seeds.  Every cell must be ``to_json()``-identical and
  the matrix driver must be at least 2x faster (``matrix_speedup``),
  with a checked-in throughput floor (``bench_floor.json``) guarding
  against >30% serial-throughput regressions.

``REPRO_BENCH_STRICT=0`` waives the assertions (noisy shared runners);
the data points are always emitted.
"""

import json
import os
import time

from repro.compilers import Compiler, CompilerSpec
from repro.debugger import DebuggerSpec, GdbLike, LldbLike
from repro.fuzz import generate_validated
from repro.pipeline import (
    run_campaign, run_campaign_on_programs, run_campaign_parallel,
    run_matrix_campaign,
)

from conftest import banner, pool_size, record_campaign_bench

CPUS = os.cpu_count() or 1

FLOOR_PATH = os.path.join(os.path.dirname(__file__), "bench_floor.json")

#: Waivable on noisy shared runners; the JSON is still emitted.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"


def test_campaign_serial_vs_parallel(benchmark):
    count = pool_size(100)
    workers = min(4, max(2, CPUS))
    timings = {}

    def run():
        started = time.perf_counter()
        serial = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                              pool_size=count)
        timings["serial"] = time.perf_counter() - started
        started = time.perf_counter()
        parallel = run_campaign_parallel(
            CompilerSpec("gcc", "trunk"), DebuggerSpec("gdb-like"),
            pool_size=count, workers=workers)
        timings["parallel"] = time.perf_counter() - started
        return serial, parallel

    serial, parallel = benchmark.pedantic(run, rounds=1, iterations=1)

    # The differential guarantee, at campaign scale.
    assert parallel == serial
    assert parallel.table1() == serial.table1()

    speedup = timings["serial"] / timings["parallel"]
    record_campaign_bench(
        pool_size=count,
        workers=workers,
        cpus=CPUS,
        serial_seconds=round(timings["serial"], 3),
        parallel_seconds=round(timings["parallel"], 3),
        serial_programs_per_sec=round(count / timings["serial"], 2),
        parallel_programs_per_sec=round(count / timings["parallel"], 2),
        speedup=round(speedup, 2),
    )

    print(banner(f"Campaign wall-clock ({count} programs, "
                 f"{workers} workers, {CPUS} cpus)"))
    print(f"  serial:   {timings['serial']:7.2f}s "
          f"({count / timings['serial']:6.2f} programs/sec)")
    print(f"  parallel: {timings['parallel']:7.2f}s "
          f"({count / timings['parallel']:6.2f} programs/sec)")
    print(f"  speedup:  {speedup:.2f}x")

    # Sharding must pay for its spawn overhead wherever there is any
    # parallel hardware at all; batched dispatch plus the per-worker
    # toolchain memo is what keeps this above water at 2 cores.
    if STRICT and CPUS >= 2 and count >= 50:
        assert speedup > 1.0, \
            f"sharded campaign no faster on {CPUS} cores: {speedup:.2f}x"
    if STRICT and CPUS >= 4 and count >= 50:
        assert speedup >= 1.5, \
            f"sharded campaign too slow on {CPUS} cores: {speedup:.2f}x"


def test_matrix_vs_per_cell(benchmark):
    count = pool_size(24)
    families = ("gcc", "clang")
    debugger_classes = (GdbLike, LldbLike)
    timings = {}

    def run():
        # Each phase is priced as fresh processes would pay it: the
        # per-cell baseline is four independent reference runs, each
        # regenerating the pool and compiling every level from source
        # (run_campaign is the 1x1 matrix, so it is no baseline); the
        # matrix pays the frontend once.  Two rounds, best-of per
        # phase, to shave scheduler noise.
        per_cell = matrix = None
        timings["per_cell"] = timings["matrix"] = float("inf")
        for _round in range(2):
            started = time.perf_counter()
            results = {}
            for family in families:
                for cls in debugger_classes:
                    generate_validated.cache_clear()
                    results[(family, cls.name)] = run_campaign_on_programs(
                        [generate_validated(seed) for seed in range(count)],
                        Compiler(family, "trunk"), cls())
            timings["per_cell"] = min(timings["per_cell"],
                                      time.perf_counter() - started)
            per_cell = results

            generate_validated.cache_clear()
            started = time.perf_counter()
            matrix = run_matrix_campaign(pool_size=count,
                                         families=families)
            timings["matrix"] = min(timings["matrix"],
                                    time.perf_counter() - started)
        return per_cell, matrix

    per_cell, matrix = benchmark.pedantic(run, rounds=1, iterations=1)

    # The differential guarantee, at matrix scale: every cell byte-equal.
    for (family, debugger_name), result in per_cell.items():
        cell = matrix.cell(family, "trunk", debugger_name)
        assert cell.to_json() == result.to_json(), (family, debugger_name)

    matrix_rate = count / timings["matrix"]
    percell_rate = count / timings["per_cell"]
    matrix_speedup = timings["per_cell"] / timings["matrix"]
    record_campaign_bench(
        matrix_pool_size=count,
        matrix_cells=len(matrix.cells),
        matrix_seconds=round(timings["matrix"], 3),
        percell_seconds=round(timings["per_cell"], 3),
        matrix_programs_per_sec=round(matrix_rate, 2),
        percell_programs_per_sec=round(percell_rate, 2),
        matrix_speedup=round(matrix_speedup, 2),
    )

    print(banner(f"Matrix wall-clock ({count} programs, "
                 f"{len(matrix.cells)} cells)"))
    print(f"  per-cell: {timings['per_cell']:7.2f}s "
          f"({percell_rate:6.2f} programs/sec)")
    print(f"  matrix:   {timings['matrix']:7.2f}s "
          f"({matrix_rate:6.2f} programs/sec)")
    print(f"  speedup:  {matrix_speedup:.2f}x")

    if STRICT and count >= 20:
        # The compile-once acceptance bar: serial matrix throughput at
        # least 2x the per-cell baseline measured in the same run.
        assert matrix_speedup >= 2.0, \
            f"matrix driver only {matrix_speedup:.2f}x over per-cell"
        # Regression floor: more than 30% below the checked-in serial
        # matrix throughput fails the bench.
        with open(FLOOR_PATH, encoding="utf-8") as handle:
            floor = json.load(handle)["min_matrix_programs_per_sec"]
        assert matrix_rate >= 0.7 * floor, \
            (f"serial matrix throughput regressed >30%: "
             f"{matrix_rate:.2f}/s vs floor {floor:.2f}/s")
