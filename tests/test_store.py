"""Persistent campaign store (``repro-db/2``) tests.

Pins the contracts the store subsystem is built on:

* **Resume bit-identity** — a store-backed run interrupted at any seed
  and resumed (even with the levels requested in a different order, or
  from a different driver sharing the cell) returns a result
  byte-identical to an uninterrupted storeless run, while recompiling
  only the unevaluated ``(seed, cell)`` pairs (zero recompiles when
  everything is stored — counted by monkeypatching the backend).
* **Merge algebra** — the reduction merge sums stats and merges
  same-seed witness shards, and the one folder (``fold_results``)
  treats empty and single-shard inputs of every result type the same
  way (the rest lives in ``tests/test_merge_algebra.py``).
* **Serialization hygiene** — truncated artifacts fail with a uniform
  "malformed <schema> artifact: missing field ..." error instead of a
  bare ``KeyError``, and ``repro-db ingest`` followed by ``export``
  round-trips an artifact byte for byte.
* **CLI/report integration** — ``repro-db`` manages stores from the
  command line and ``repro-report`` renders deliverables straight from
  a store file, no export step.
"""

import dataclasses
import json
import os
import sqlite3

import pytest

from repro.compilers import Compiler
from repro.debugger import GdbLike, LldbLike
from repro.bisect import BisectCampaignResult, run_bisect_campaign
from repro.pipeline import (
    CampaignResult, MatrixCampaignResult, ReductionCampaignResult,
    fold_results, run_campaign, run_campaign_parallel,
    run_matrix_campaign, run_reduction_campaign,
)
from repro.report import is_store_file, load_artifact_file
from repro.report.cli import main as report_cli
from repro.staticcheck import (
    VerifyCampaignResult, run_verify_campaign,
    run_verify_campaign_parallel,
)
from repro.store import (
    CampaignStore, StoreError, canonical_json, text_digest,
)
from repro.store.cli import main as db_cli

DATA = os.path.join(os.path.dirname(__file__), "data")
CAMPAIGN_FIXTURE = os.path.join(DATA, "campaign_artifact_v1.json")
VERIFY_FIXTURE = os.path.join(DATA, "verify_artifact_v1.json")

POOL = 6


@pytest.fixture(scope="module")
def serial_gcc():
    return run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                        pool_size=POOL)


@pytest.fixture(scope="module")
def serial_verify():
    return run_verify_campaign(Compiler("gcc", "trunk"), pool_size=3)


@pytest.fixture(scope="module")
def serial_reduce(serial_gcc):
    return run_reduction_campaign(serial_gcc, debugger=GdbLike())


@pytest.fixture(scope="module")
def serial_bisect(serial_gcc):
    return run_bisect_campaign(serial_gcc, limit=1)


@pytest.fixture
def compile_counter(monkeypatch):
    """Count backend invocations — ``compile`` funnels into
    ``compile_ir``, so this sees every compile any driver performs."""
    calls = {"count": 0}
    real = Compiler.compile_ir

    def counting(self, *args, **kwargs):
        calls["count"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Compiler, "compile_ir", counting)
    return calls


# -- store primitives ---------------------------------------------------------


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, 3]}) == \
        canonical_json({"a": [2, 3], "b": 1})
    assert text_digest(canonical_json({"x": 1})) == \
        text_digest('{"x":1}')


def test_run_id_is_level_order_insensitive(tmp_path):
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        first = store.run_id("repro-campaign/1", "gcc", "trunk",
                             ["O2", "O1"], debugger="gdb-like")
        again = store.run_id("repro-campaign/1", "gcc", "trunk",
                             ["O1", "O2"], debugger="gdb-like")
        assert first == again
        # ... but the first creator's display order is what exports see.
        assert store.run_info(first).levels == ("O2", "O1")
        # A different level *set*, debugger, or schema is a new cell.
        assert store.run_id("repro-campaign/1", "gcc", "trunk",
                            ["O1"], debugger="gdb-like") != first
        assert store.run_id("repro-campaign/1", "gcc", "trunk",
                            ["O2", "O1"], debugger="lldb-like") != first
        assert store.run_id("repro-verify/1", "gcc", "trunk",
                            ["O2", "O1"]) != first


def test_put_result_conflict_is_an_error(tmp_path):
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        run = store.run_id("repro-campaign/1", "gcc", "trunk", ["O2"])
        store.put_result(run, 7, {"seed": 7, "violations": {}})
        # Idempotent for the identical payload...
        store.put_result(run, 7, {"violations": {}, "seed": 7})
        assert store.get_result(run, 7) == {"seed": 7, "violations": {}}
        # ... an error for a different one (a silent overwrite would
        # let a diverged worker corrupt the campaign).
        with pytest.raises(StoreError, match="different payload"):
            store.put_result(run, 7, {"seed": 7, "violations": {"O2": []}})


def test_unit_keys_share_a_seed_and_conflict_per_key(tmp_path):
    """One results table holds every unit: rows of one ``(run, seed)``
    under different keys coexist, a divergent payload under the same
    key is an error, and export orders by seed, then position."""
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        run = store.run_id("repro-reduce/1", "gcc", "trunk", ())
        store.put_result(run, 5, {"witness": "b"}, key="O2/C1/b",
                         position=1)
        store.put_result(run, 5, {"witness": "a"}, key="O2/C1/a",
                         position=0)
        store.put_result(run, 2, {"witness": "c"}, key="O1/C2/c",
                         position=0)
        assert store.get_result(run, 5, "O2/C1/a") == {"witness": "a"}
        assert store.get_result(run, 5, "O2/C1/b") == {"witness": "b"}
        assert store.get_result(run, 5) is None
        assert store.has_result(run, 5, "O2/C1/b")
        assert not store.has_result(run, 5)
        assert store.result_count(run) == 3
        assert store.seeds_evaluated(run) == [2, 5]
        assert [p["witness"] for p in store._result_payloads(run)] == \
            ["c", "a", "b"]
        store.put_result(run, 5, {"witness": "a"}, key="O2/C1/a",
                         position=0)
        with pytest.raises(StoreError, match="key O2/C1/a"):
            store.put_result(run, 5, {"witness": "z"}, key="O2/C1/a",
                             position=0)


def test_repro_db_1_store_is_rejected(tmp_path):
    path = str(tmp_path / "old.sqlite")
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY,"
                     " value TEXT NOT NULL)")
        conn.execute("INSERT INTO meta VALUES ('schema', 'repro-db/1')")
        conn.execute("CREATE TABLE results (run_id INTEGER NOT NULL,"
                     " seed INTEGER NOT NULL, payload_hash TEXT NOT NULL,"
                     " PRIMARY KEY (run_id, seed))")
    conn.close()
    with pytest.raises(StoreError) as error:
        CampaignStore(path)
    assert "'repro-db/1'" in str(error.value)
    assert "'repro-db/2'" in str(error.value)


def test_program_and_fingerprint_bookkeeping(tmp_path):
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        store.add_program(3, "int main() { return 0; }\n")
        store.add_program(3, "int main() { return 0; }\n")
        assert store.program_source(3) == "int main() { return 0; }\n"
        assert store.program_source(4) is None
        store.record_module_fingerprint(3, "abc123")
        store.record_module_fingerprint(3, "abc123")
        assert store.module_fingerprint(3) == "abc123"
        with pytest.raises(StoreError, match="lowered module"):
            store.record_module_fingerprint(3, "fff000")


def test_blob_dedup_shares_identical_content(tmp_path):
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        run_a = store.run_id("repro-campaign/1", "gcc", "trunk", ["O1"])
        run_b = store.run_id("repro-campaign/1", "gcc", "old", ["O1"])
        payload = {"seed": 1, "violations": {"O1": []}}
        store.put_result(run_a, 1, payload)
        store.put_result(run_b, 1, payload)
        assert store.stats.blob_reuses == 1
        assert store.summary()["tables"]["blobs"] == 1


# -- resumable campaigns ------------------------------------------------------


def test_campaign_resume_is_bit_identical_and_incremental(
        tmp_path, serial_gcc, compile_counter):
    db = str(tmp_path / "s.sqlite")
    compiler, debugger = Compiler("gcc", "trunk"), GdbLike()
    with CampaignStore(db) as store:
        run_campaign(compiler, debugger, pool_size=3, store=store)
        half_compiles = compile_counter["count"]
        assert half_compiles > 0
    # "Interrupted after 3 seeds": the re-run pays only for the delta...
    with CampaignStore(db) as store:
        resumed = run_campaign(compiler, debugger, pool_size=POOL,
                               store=store)
        assert store.stats.hits == 3 and store.stats.misses == 3
    assert compile_counter["count"] == 2 * half_compiles
    # ... and is byte-identical to the uninterrupted storeless run.
    assert resumed.to_json(indent=2) == serial_gcc.to_json(indent=2)
    # A fully stored campaign replays without a single compile.
    before = compile_counter["count"]
    with CampaignStore(db) as store:
        replayed = run_campaign(compiler, debugger, pool_size=POOL,
                                store=store)
    assert compile_counter["count"] == before
    assert replayed.to_json(indent=2) == serial_gcc.to_json(indent=2)


def test_campaign_resume_across_level_orders(tmp_path, compile_counter):
    db = str(tmp_path / "s.sqlite")
    compiler, debugger = Compiler("gcc", "trunk"), GdbLike()
    with CampaignStore(db) as store:
        run_campaign(compiler, debugger, pool_size=3,
                     levels=["O1", "O2"], store=store)
    before = compile_counter["count"]
    with CampaignStore(db) as store:
        reordered = run_campaign(compiler, debugger, pool_size=3,
                                 levels=["O2", "O1"], store=store)
    # Same cell, zero new compiles — and the result honors the order
    # *this* caller asked for, exactly like a fresh serial run.
    assert compile_counter["count"] == before
    fresh = run_campaign(compiler, debugger, pool_size=3,
                         levels=["O2", "O1"])
    assert reordered.to_json(indent=2) == fresh.to_json(indent=2)


def test_parallel_campaign_writes_through_shared_store(
        tmp_path, serial_gcc):
    db = str(tmp_path / "s.sqlite")
    result = run_campaign_parallel(
        Compiler("gcc", "trunk"), GdbLike(), pool_size=POOL, workers=2,
        store_path=db)
    assert result.to_json(indent=2) == serial_gcc.to_json(indent=2)
    # Every worker wrote through the same WAL-mode file: a serial
    # replay over the store finds all POOL seeds evaluated.
    with CampaignStore(db) as store:
        replayed = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                                pool_size=POOL, store=store)
        assert store.stats.hits == POOL and store.stats.misses == 0
    assert replayed.to_json(indent=2) == serial_gcc.to_json(indent=2)


def test_parallel_campaign_resumes_from_store(tmp_path, serial_gcc,
                                              compile_counter):
    db = str(tmp_path / "s.sqlite")
    with CampaignStore(db) as store:
        run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                     pool_size=POOL, store=store)
    before = compile_counter["count"]
    # workers=1 keeps the shards in-process, so the counter observes
    # the sharded driver going through the same store fast path.
    result = run_campaign_parallel(
        Compiler("gcc", "trunk"), GdbLike(), pool_size=POOL, workers=1,
        store_path=db)
    assert compile_counter["count"] == before
    assert result.to_json(indent=2) == serial_gcc.to_json(indent=2)


def test_matrix_resume_full_hit_skips_all_compiles(tmp_path,
                                                   compile_counter):
    db = str(tmp_path / "s.sqlite")
    with CampaignStore(db) as store:
        first = run_matrix_campaign(pool_size=2, store=store)
    fresh = run_matrix_campaign(pool_size=2)
    assert first.to_json(indent=2) == fresh.to_json(indent=2)
    before = compile_counter["count"]
    with CampaignStore(db) as store:
        replayed = run_matrix_campaign(pool_size=2, store=store)
    assert compile_counter["count"] == before
    assert replayed.to_json(indent=2) == fresh.to_json(indent=2)


def test_matrix_and_plain_campaigns_share_cells(tmp_path):
    db = str(tmp_path / "s.sqlite")
    # A plain campaign fills one cell; the matrix over the same seeds
    # resumes it (cells are the same (family, version, debugger,
    # level-set) keys) and computes only the missing lldb cell.
    with CampaignStore(db) as store:
        run_campaign(Compiler("gcc", "trunk"), GdbLike(), pool_size=2,
                     store=store)
    with CampaignStore(db) as store:
        matrix = run_matrix_campaign(
            compilers=[Compiler("gcc", "trunk")],
            debuggers=[GdbLike(), LldbLike()], pool_size=2, store=store)
        assert store.stats.hits == 2      # the stored gdb cell
        assert store.stats.misses == 2    # the fresh lldb cell
    fresh = run_matrix_campaign(
        compilers=[Compiler("gcc", "trunk")],
        debuggers=[GdbLike(), LldbLike()], pool_size=2)
    assert matrix.to_json(indent=2) == fresh.to_json(indent=2)


def test_verify_resume_bit_identical_and_incremental(
        tmp_path, serial_verify, compile_counter):
    db = str(tmp_path / "s.sqlite")
    compiler = Compiler("gcc", "trunk")
    with CampaignStore(db) as store:
        run_verify_campaign(compiler, pool_size=2, store=store)
    before = compile_counter["count"]
    with CampaignStore(db) as store:
        resumed = run_verify_campaign(compiler, pool_size=3,
                                      store=store)
        assert store.stats.hits == 2 and store.stats.misses == 1
    # Only the third program compiled: one compile per level.
    assert compile_counter["count"] == \
        before + len(serial_verify.levels)
    assert resumed.to_json(indent=2) == serial_verify.to_json(indent=2)


def test_verify_parallel_store_path(tmp_path, serial_verify):
    db = str(tmp_path / "s.sqlite")
    result = run_verify_campaign_parallel(
        Compiler("gcc", "trunk"), pool_size=3, workers=2,
        store_path=db)
    assert result.to_json(indent=2) == serial_verify.to_json(indent=2)
    with CampaignStore(db) as store:
        assert len(store.seeds_evaluated(store.runs()[0].id)) == 3


def test_reduce_resume_bit_identical_and_incremental(
        tmp_path, serial_gcc, serial_reduce, compile_counter):
    db = str(tmp_path / "s.sqlite")
    with CampaignStore(db) as store:
        run_reduction_campaign(serial_gcc, debugger=GdbLike(),
                               store=store, limit=1)
    before = compile_counter["count"]
    with CampaignStore(db) as store:
        resumed = run_reduction_campaign(serial_gcc, debugger=GdbLike(),
                                         store=store)
        assert store.stats.hits == 1
    assert resumed.to_json(indent=2) == serial_reduce.to_json(indent=2)
    # A fully stored reduction replays with zero compiles (no triage,
    # no oracle candidates).
    during = compile_counter["count"]
    assert during > before  # the resumed witnesses did real work
    with CampaignStore(db) as store:
        replayed = run_reduction_campaign(serial_gcc,
                                          debugger=GdbLike(),
                                          store=store)
    assert compile_counter["count"] == during
    assert replayed.to_json(indent=2) == serial_reduce.to_json(indent=2)


# -- merge algebra ------------------------------------------------------------


# (Random shard trees and level-order insensitivity for the
# campaign/matrix/verify schemas now live in
# tests/test_merge_algebra.py, covering all five artifact schemas.)


def test_reduction_merge_identity_and_overlap(serial_reduce):
    records = serial_reduce.records
    left = ReductionCampaignResult(
        family=serial_reduce.family, version=serial_reduce.version,
        debugger=serial_reduce.debugger, engine=serial_reduce.engine,
        pool_size=3, records=records[:1], stats={"compiles": 2})
    # A shard over a later seed range (the real records all reduce the
    # same seed, so move the right shard's copies to a disjoint one).
    moved = [dataclasses.replace(record, seed=record.seed + 7)
             for record in records[1:]]
    right = ReductionCampaignResult(
        family=serial_reduce.family, version=serial_reduce.version,
        debugger=serial_reduce.debugger, engine=serial_reduce.engine,
        pool_size=3, records=moved, stats={"compiles": 3, "traces": 1})
    merged = left.merge(right)
    assert merged.pool_size == 6
    assert merged.stats == {"compiles": 5, "traces": 1}
    assert [record.seed for record in merged.records] == \
        sorted(record.seed for record in records[:1] + moved)
    # merge(right, left) renormalizes to the same record order
    assert merged.to_json() == right.merge(left).to_json()
    with pytest.raises(ValueError, match="different cells"):
        left.merge(ReductionCampaignResult(
            family="clang", version=serial_reduce.version,
            debugger=serial_reduce.debugger,
            engine=serial_reduce.engine))
    with pytest.raises(ValueError, match="overlapping witnesses"):
        merged.merge(right)
    # Same-seed shards merge too (witness granularity): the overlap
    # check is on full witness keys, not seed ranges.
    tail = ReductionCampaignResult(
        family=serial_reduce.family, version=serial_reduce.version,
        debugger=serial_reduce.debugger, engine=serial_reduce.engine,
        pool_size=0, records=records[1:])
    assert left.merge(tail).witnesses == len(records)


def test_folders_agree_on_empty_and_single_shard(serial_gcc,
                                                 serial_verify,
                                                 serial_reduce,
                                                 serial_bisect):
    with pytest.raises(ValueError, match="empty sequence"):
        fold_results([])
    with pytest.raises(ValueError, match="empty sequence"):
        fold_results(iter(()))
    matrix = MatrixCampaignResult(pool_size=0)
    for shard in (serial_gcc, matrix, serial_verify, serial_reduce,
                  serial_bisect):
        # A single shard round-trips unchanged — the same object, not
        # a copy that might renormalize field order.
        assert fold_results([shard]) is shard
        assert fold_results(iter([shard])) is shard


# -- malformed artifacts ------------------------------------------------------


def _truncated(document, *path):
    data = json.loads(document)
    node = data
    for step in path[:-1]:
        node = node[step]
    del node[path[-1]]
    return data


@pytest.mark.parametrize("path,field", [
    ((), "levels"),
    ((), "pool_size"),
    (("programs", 0), "seed"),
    (("programs", 0), "violations"),
])
def test_malformed_campaign_artifact(path, field):
    with open(CAMPAIGN_FIXTURE, encoding="utf-8") as handle:
        data = _truncated(handle.read(), *path, field)
    with pytest.raises(ValueError, match=(
            rf"malformed repro-campaign/1 artifact: "
            rf"missing field '{field}'")):
        CampaignResult.from_dict(data)


@pytest.mark.parametrize("path,field", [
    ((), "family"),
    (("programs", 0), "findings"),
])
def test_malformed_verify_artifact(path, field):
    with open(VERIFY_FIXTURE, encoding="utf-8") as handle:
        data = _truncated(handle.read(), *path, field)
    with pytest.raises(ValueError, match=(
            rf"malformed repro-verify/1 artifact: "
            rf"missing field '{field}'")):
        VerifyCampaignResult.from_dict(data)


@pytest.mark.parametrize("path,field", [
    ((), "fingerprints"),
    (("cells", 0), "campaign"),
])
def test_malformed_matrix_artifact(path, field):
    full = run_matrix_campaign(
        compilers=[Compiler("gcc", "trunk")], debuggers=[GdbLike()],
        pool_size=1)
    data = _truncated(full.to_json(), *path, field)
    with pytest.raises(ValueError, match=(
            rf"malformed repro-matrix/1 artifact: "
            rf"missing field '{field}'")):
        MatrixCampaignResult.from_dict(data)


@pytest.mark.parametrize("path,field", [
    ((), "stats"),
    (("records", 0), "reduced_source"),
])
def test_malformed_reduce_artifact(serial_reduce, path, field):
    data = _truncated(serial_reduce.to_json(), *path, field)
    with pytest.raises(ValueError, match=(
            rf"malformed repro-reduce/1 artifact: "
            rf"missing field '{field}'")):
        ReductionCampaignResult.from_dict(data)


@pytest.mark.parametrize("path,field", [
    ((), "stats"),
    (("records", 0), "supported"),
])
def test_malformed_bisect_artifact(serial_bisect, path, field):
    data = _truncated(serial_bisect.to_json(), *path, field)
    with pytest.raises(ValueError, match=(
            rf"malformed repro-bisect/1 artifact: "
            rf"missing field '{field}'")):
        BisectCampaignResult.from_dict(data)


# -- ingest / export round-trips ----------------------------------------------


def test_ingest_export_verify_fixture_byte_identical(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    out = str(tmp_path / "verify.json")
    assert db_cli(["ingest", db, VERIFY_FIXTURE]) == 0
    assert db_cli(["export", db, "--output", out]) == 0
    capsys.readouterr()
    with open(VERIFY_FIXTURE, encoding="utf-8") as handle:
        original = handle.read()
    with open(out, encoding="utf-8") as handle:
        assert handle.read() == original


def test_ingest_export_campaign_fixture_fixed_point(tmp_path, capsys):
    # The campaign fixture carries an extra testing key
    # (``expected_table1``), so the export is the *canonical* document:
    # exporting, re-ingesting, and exporting again is byte-stable.
    db = str(tmp_path / "s.sqlite")
    first = str(tmp_path / "campaign.json")
    second = str(tmp_path / "campaign2.json")
    assert db_cli(["ingest", db, CAMPAIGN_FIXTURE,
                   "--debugger", "gdb-like"]) == 0
    assert db_cli(["export", db, "--output", first]) == 0
    db2 = str(tmp_path / "s2.sqlite")
    assert db_cli(["ingest", db2, first, "--debugger", "gdb-like"]) == 0
    assert db_cli(["export", db2, "--output", second]) == 0
    capsys.readouterr()
    with open(first, encoding="utf-8") as handle:
        exported = handle.read()
    with open(second, encoding="utf-8") as handle:
        assert handle.read() == exported
    assert exported == \
        load_artifact_file(CAMPAIGN_FIXTURE).to_json(indent=2) + "\n"


def test_ingest_matrix_exports_matrix(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    matrix = run_matrix_campaign(pool_size=2)
    source = str(tmp_path / "matrix.json")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(matrix.to_json(indent=2) + "\n")
    out = str(tmp_path / "exported.json")
    assert db_cli(["ingest", db, source]) == 0
    assert db_cli(["export", db, "--matrix", "--output", out]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as handle:
        assert handle.read() == matrix.to_json(indent=2) + "\n"


def test_store_roundtrip_reduction(tmp_path, serial_reduce):
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        (run,) = store.ingest(serial_reduce)
        assert store.load_run(run).to_json(indent=2) == \
            serial_reduce.to_json(indent=2)


def test_ingest_rejects_unsupported_artifacts(tmp_path):
    with CampaignStore(str(tmp_path / "s.sqlite")) as store:
        with pytest.raises(StoreError, match="not stored"):
            store.ingest(load_artifact_file(
                os.path.join(DATA, "triage_artifact_v1.json")))


# -- repro-db CLI -------------------------------------------------------------


def test_db_cli_init_list_stats(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    assert db_cli(["init", db]) == 0
    assert db_cli(["list", db]) == 0
    assert db_cli(["stats", db, "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "no runs stored"
    summary = json.loads("\n".join(lines[2:]))
    assert summary["schema"] == "repro-db/2"
    assert summary["tables"]["runs"] == 0


def test_db_cli_export_needs_run_for_multi_run_store(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    assert db_cli(["ingest", db, VERIFY_FIXTURE]) == 0
    assert db_cli(["ingest", db, CAMPAIGN_FIXTURE,
                   "--debugger", "gdb-like"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        db_cli(["export", db])
    assert "--run ID" in capsys.readouterr().err
    out = str(tmp_path / "verify.json")
    assert db_cli(["export", db, "--run", "1", "--output", out]) == 0
    with open(VERIFY_FIXTURE, encoding="utf-8") as handle:
        with open(out, encoding="utf-8") as exported:
            assert exported.read() == handle.read()


def test_db_cli_rejects_malformed_input(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "repro-campaign/1"}')
    with pytest.raises(SystemExit):
        db_cli(["ingest", db, str(bad)])
    assert "missing field" in capsys.readouterr().err


# -- repro-report from a store ------------------------------------------------


def test_load_artifact_file_accepts_single_run_store(tmp_path):
    db = str(tmp_path / "s.sqlite")
    assert not is_store_file(VERIFY_FIXTURE)
    with CampaignStore(db) as store:
        store.ingest(load_artifact_file(VERIFY_FIXTURE))
    assert is_store_file(db)
    loaded = load_artifact_file(db)
    assert isinstance(loaded, VerifyCampaignResult)
    with open(VERIFY_FIXTURE, encoding="utf-8") as handle:
        assert loaded.to_json(indent=2) + "\n" == handle.read()
    with CampaignStore(db) as store:
        store.ingest(load_artifact_file(CAMPAIGN_FIXTURE),
                     debugger="gdb-like")
    with pytest.raises(ValueError, match="store holds 2 runs"):
        load_artifact_file(db)


def test_report_cli_renders_table1_from_store(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    with CampaignStore(db) as store:
        store.ingest(load_artifact_file(CAMPAIGN_FIXTURE),
                     debugger="gdb-like")
        store.ingest(load_artifact_file(VERIFY_FIXTURE))
    # The typed subcommands pick the run of the type they need — no
    # export step, same bytes as rendering the JSON document.
    assert report_cli(["table1", db]) == 0
    from_store = capsys.readouterr().out
    assert report_cli(["table1", CAMPAIGN_FIXTURE]) == 0
    assert from_store == capsys.readouterr().out
    assert report_cli(["verify", db]) == 0


def test_report_cli_errors_without_matching_run(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    with CampaignStore(db) as store:
        store.ingest(load_artifact_file(VERIFY_FIXTURE))
    capsys.readouterr()
    with pytest.raises(SystemExit):
        report_cli(["reduce", db])
    assert "store holds no ReductionCampaignResult run" in \
        capsys.readouterr().err


def test_report_cli_assembles_matrix_from_campaign_cells(tmp_path,
                                                         capsys):
    db = str(tmp_path / "s.sqlite")
    matrix = run_matrix_campaign(pool_size=2)
    with CampaignStore(db) as store:
        store.ingest(matrix)
    assert report_cli(["table1", db]) == 0
    from_store = capsys.readouterr().out
    source = str(tmp_path / "matrix.json")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(matrix.to_json(indent=2) + "\n")
    assert report_cli(["table1", source]) == 0
    assert from_store == capsys.readouterr().out


def test_report_all_expands_store_sources(tmp_path, capsys):
    db = str(tmp_path / "s.sqlite")
    with CampaignStore(db) as store:
        store.ingest(load_artifact_file(CAMPAIGN_FIXTURE),
                     debugger="gdb-like")
        store.ingest(load_artifact_file(VERIFY_FIXTURE))
    out_dir = str(tmp_path / "out")
    assert report_cli(["all", out_dir, "--from", db, "--quiet"]) == 0
    capsys.readouterr()
    with open(os.path.join(out_dir, "manifest.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    deliverables = {report["deliverable"]
                    for report in manifest["reports"]}
    assert "table1" in deliverables and "verify" in deliverables
