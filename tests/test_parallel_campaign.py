"""Differential tests for the sharded campaign subsystem.

Pins the three contracts the parallel driver is built on:

* serial and parallel campaigns over the same seed range are
  **bit-identical** (Table 1, Venn regions, Figure 4 grid, full value);
* ``CampaignResult.merge`` is associative and order-independent over
  arbitrary shard splits;
* program generation is a pure function of the seed, even in a spawned
  worker process (no RNG state leaks across shard boundaries).

Plus round-trip and schema-stability coverage for the JSON artifacts.
"""

import json
import multiprocessing
import os

import pytest

from repro.compilers import Compiler, CompilerSpec
from repro.debugger import DebuggerSpec, GdbLike, spec_for
from repro.fuzz import SeedSpec, seed_fingerprint
from repro.metrics import StudyResult, run_study_seeds
from repro.pipeline import (
    CampaignResult, fold_results, run_campaign, run_campaign_parallel,
    run_study_parallel,
)
from repro.pipeline.cli import main as campaign_cli

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "campaign_artifact_v1.json")

POOL = 6


@pytest.fixture(scope="module")
def serial_gcc():
    return run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                        pool_size=POOL)


# -- seed-spec plumbing -------------------------------------------------------


def test_seedspec_shard_partitions_range():
    spec = SeedSpec(base=7, count=23)
    for shards in (1, 2, 5, 23, 40):
        parts = spec.shard(shards)
        assert len(parts) == min(shards, 23)
        # contiguous, in order, sizes differing by at most one
        seeds = [s for part in parts for s in part.seeds()]
        assert seeds == list(spec.seeds())
        sizes = {part.count for part in parts}
        assert max(sizes) - min(sizes) <= 1
        assert all(part.count > 0 for part in parts)


def test_seedspec_shard_of_empty_range():
    parts = SeedSpec(base=0, count=0).shard(4)
    assert [p.count for p in parts] == [0]


# -- spec round trips ---------------------------------------------------------


def test_compiler_spec_round_trip():
    compiler = Compiler("clang", "9", verify=True)
    rebuilt = compiler.spec().build()
    assert (rebuilt.family, rebuilt.version, rebuilt.verify) == \
        ("clang", "9", True)
    assert rebuilt.defects == compiler.defects


def test_compiler_spec_refuses_custom_defects():
    compiler = Compiler("gcc", "trunk")
    compiler.defects = []
    with pytest.raises(ValueError, match="customized defect list"):
        compiler.spec()


def test_debugger_spec_round_trip():
    debugger = GdbLike()
    assert isinstance(spec_for(debugger).build(), GdbLike)
    with pytest.raises(ValueError, match="unknown debugger"):
        DebuggerSpec("windbg")


# -- the differential harness -------------------------------------------------


def test_serial_parallel_bit_identical_clang():
    from repro.debugger import LldbLike
    serial = run_campaign(Compiler("clang", "trunk"), LldbLike(),
                          pool_size=4, seed_base=100)
    parallel = run_campaign_parallel(
        CompilerSpec("clang", "trunk"), DebuggerSpec("lldb-like"),
        pool_size=4, seed_base=100, workers=2, start_method="spawn")
    assert parallel == serial


def test_parallel_accepts_live_objects(serial_gcc):
    # In-process worker path (workers=1): live objects are spec'd first.
    parallel = run_campaign_parallel(
        Compiler("gcc", "trunk"), GdbLike(), pool_size=POOL, workers=1)
    assert parallel == serial_gcc


# -- merge algebra ------------------------------------------------------------


# (Random shard trees, fold-order identity, foreign-schema and overlap
# rejection live in tests/test_merge_algebra.py, covering all five
# artifact schemas; the sharded gcc matrix == serial run lives in
# tests/test_unit_drivers.py.)


def test_merge_rejects_mismatched_shards(serial_gcc):
    other = CampaignResult(family="gcc", version="8",
                           levels=list(serial_gcc.levels))
    with pytest.raises(ValueError, match="different compilers"):
        serial_gcc.merge(other)
    widened = CampaignResult(family="gcc", version="trunk",
                             levels=list(serial_gcc.levels) + ["O0"])
    with pytest.raises(ValueError, match="different level sets"):
        serial_gcc.merge(widened)
    with pytest.raises(ValueError, match="empty sequence"):
        fold_results([])


# -- seed determinism across processes ---------------------------------------


def test_generation_identical_in_spawned_worker():
    seeds = [0, 3, 41, 1000]
    parent = [seed_fingerprint(seed) for seed in seeds]
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=2) as pool:
        children = pool.map(seed_fingerprint, seeds)
    assert children == parent


# -- JSON artifacts -----------------------------------------------------------


def test_campaign_json_round_trip(serial_gcc):
    restored = CampaignResult.from_json(serial_gcc.to_json())
    assert restored == serial_gcc
    assert restored.table1() == serial_gcc.table1()
    # indentation is cosmetic only
    assert CampaignResult.from_json(serial_gcc.to_json(indent=2)) == \
        serial_gcc


def test_campaign_artifact_schema_stability():
    """A stored v1 artifact must keep loading, byte for byte.

    The fixture was produced by ``repro-campaign`` at the time the schema
    was introduced; the expected aggregates below describe the *stored*
    data, so they stay valid even if the generator or checkers evolve.
    If this test breaks, a schema migration (not a fixture update) is the
    required fix.
    """
    with open(FIXTURE, encoding="utf-8") as handle:
        text = handle.read()
    result = CampaignResult.from_json(text)
    assert result.family == "gcc"
    assert result.version == "trunk"
    assert result.pool_size == 5
    assert result.levels == ["Og", "O1", "O2", "O3", "Os", "Oz"]
    # round-trips through the current serializer without loss
    assert CampaignResult.from_json(result.to_json()) == result
    # aggregates of the stored artifact (independent of the generator)
    expected = json.loads(text)["expected_table1"]
    table = result.table1()
    for level, row in expected.items():
        assert table[level] == row, f"stored aggregate drifted at {level}"


def test_study_json_round_trip_and_parallel():
    serial = run_study_seeds(SeedSpec(0, 4), "gcc", ("trunk",),
                             ("O1", "Og"), GdbLike())
    parallel = run_study_parallel(
        "gcc", ("trunk",), ("O1", "Og"), DebuggerSpec("gdb-like"),
        pool_size=4, workers=2, start_method="spawn")
    assert parallel == serial  # bit-identical floats
    assert StudyResult.from_json(serial.to_json()) == serial
    with pytest.raises(ValueError, match="schema"):
        StudyResult.from_json("{}")


# -- CLI ----------------------------------------------------------------------


def test_cli_writes_artifact_and_prints_summary(tmp_path, capsys):
    artifact = tmp_path / "campaign.json"
    code = campaign_cli([
        "--family", "gcc", "--pool-size", "3", "--workers", "1",
        "--output", str(artifact),
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Table 1" in output
    assert "programs/sec" in output
    stored = CampaignResult.from_json(artifact.read_text())
    assert stored.pool_size == 3
    serial = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                          pool_size=3)
    assert stored == serial


def test_cli_serial_flag_matches_parallel(tmp_path):
    a = tmp_path / "serial.json"
    b = tmp_path / "parallel.json"
    argv = ["--family", "clang", "--pool-size", "2", "--quiet"]
    assert campaign_cli(argv + ["--serial", "--output", str(a)]) == 0
    assert campaign_cli(argv + ["--workers", "2",
                                "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()
