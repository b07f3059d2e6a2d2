"""Fault-injection, containment, and supervision tests.

Pins the contracts of the fault-tolerance subsystem (``repro.faults``
plus the supervised drivers):

* fault plans are deterministic, serializable, and picklable;
* the containment boundary converts every injected (and real) failure
  into a structured :class:`~repro.faults.FailureRecord` instead of
  aborting — campaigns always complete;
* chaos runs are **bit-identical** across the serial and sharded
  drivers, and their successful cells are bit-identical to a fault-free
  run;
* the supervisor respawns crashed shards with bounded retries and
  deterministic backoff, then rescues the shard in-driver so only the
  seeds that keep killing workers quarantine;
* the store records quarantined pairs, resume retries them (unless
  ``retry_failed=False``), and ``KeyboardInterrupt`` flushes.
"""

import json
import pickle

import pytest

from repro.bisect import run_bisect_campaign, run_bisect_campaign_parallel
from repro.compilers import Compiler, CompilerSpec
from repro.debugger import DebuggerSpec, GdbLike
from repro.faults import (
    DEFAULT_MAX_ATTEMPTS, ERROR_STAGES, FAULTPLAN_SCHEMA, PERSISTENT,
    FailureBoundary, FailureRecord, FaultPlan, FaultSpec, InjectedCrash,
    InjectedError, InjectedFault, InjectedHang, failure_census,
    failures_from_dicts, failures_to_dicts, merge_failures,
    record_failure,
)
from repro.ir.interp import TimeoutError_
from repro.pipeline import (
    CampaignResult, RetryPolicy, run_campaign, run_campaign_parallel,
    run_matrix_campaign, run_matrix_campaign_parallel,
    run_reduction_campaign,
)
from repro.staticcheck import (
    run_verify_campaign, run_verify_campaign_parallel,
)
from repro.store import CampaignStore

POOL = 6

#: A bit of everything: a transient compile error (recovers on retry),
#: a persistent generate error (quarantines), a hang (quarantines
#: immediately on the fuel-exhaustion path), and a soft worker crash
#: (one incarnation, then recovers).
CHAOS = FaultPlan(seed=7, specs=(
    FaultSpec(kind="error", stage="compile", seeds=(1,), count=2),
    FaultSpec(kind="error", stage="generate", seeds=(4,),
              count=PERSISTENT),
    FaultSpec(kind="hang", seeds=(3,)),
    FaultSpec(kind="crash", seeds=(5,), count=1),
))


@pytest.fixture(scope="module")
def clean_campaign():
    return run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                        pool_size=POOL)


@pytest.fixture(scope="module")
def chaos_campaign():
    return run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                        pool_size=POOL, faults=CHAOS)


# -- fault plans --------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="gremlin")
    with pytest.raises(ValueError, match="needs a stage"):
        FaultSpec(kind="error")
    with pytest.raises(ValueError, match="fixed stage"):
        FaultSpec(kind="hang", stage="trace")
    with pytest.raises(ValueError, match="count"):
        FaultSpec(kind="error", stage="compile", count=0)
    with pytest.raises(ValueError, match="rate"):
        FaultSpec(kind="error", stage="compile", rate=1.5)
    with pytest.raises(ValueError, match="hard"):
        FaultSpec(kind="error", stage="compile", hard=True)


def test_spec_liveness():
    assert FaultSpec(kind="error", stage="compile", count=2).live(1)
    assert not FaultSpec(kind="error", stage="compile", count=2).live(2)
    persistent = FaultSpec(kind="error", stage="compile",
                           count=PERSISTENT)
    assert persistent.live(10 ** 6)


def test_plan_chance_is_deterministic_and_uniformish():
    plan = FaultPlan(seed=3)
    draws = [plan.chance("error", "compile", seed)
             for seed in range(200)]
    assert draws == [FaultPlan(seed=3).chance("error", "compile", seed)
                     for seed in range(200)]
    assert all(0.0 <= d < 1.0 for d in draws)
    # a different plan seed reshuffles the draws
    assert draws != [FaultPlan(seed=4).chance("error", "compile", seed)
                     for seed in range(200)]


def test_rate_spec_targets_a_stable_subset():
    plan = FaultPlan(seed=11, specs=(
        FaultSpec(kind="error", stage="trace", rate=0.3),))
    hit = [seed for seed in range(100)
           if plan.chance("error", "trace", seed) < 0.3]
    assert 10 < len(hit) < 60  # rate ~0.3 of 100, loose bounds
    for seed in hit:
        with pytest.raises(InjectedError):
            plan.check("trace", seed)
    for seed in set(range(100)) - set(hit):
        plan.check("trace", seed)  # no raise


def test_plan_round_trips_json_and_file(tmp_path):
    text = CHAOS.to_json()
    assert FaultPlan.from_json(text) == CHAOS
    assert json.loads(text)["schema"] == FAULTPLAN_SCHEMA
    path = tmp_path / "plan.json"
    path.write_text(text, encoding="utf-8")
    assert FaultPlan.load(str(path)) == CHAOS
    with pytest.raises(ValueError, match="not a fault plan"):
        FaultPlan.from_json('{"schema": "repro-campaign/1"}')


def test_plan_and_exceptions_pickle():
    assert pickle.loads(pickle.dumps(CHAOS)) == CHAOS
    crash = pickle.loads(pickle.dumps(
        InjectedCrash("injected worker crash (seed 5)")))
    assert isinstance(crash, InjectedCrash)
    hang = pickle.loads(pickle.dumps(InjectedHang("(injected)")))
    assert isinstance(hang, TimeoutError_)
    assert isinstance(hang, InjectedFault)


def test_prior_crashes_accounting():
    plan = FaultPlan(seed=0, specs=(
        FaultSpec(kind="crash", seeds=(5,), count=2),
        FaultSpec(kind="crash", seeds=(9,), count=PERSISTENT),))
    assert plan.prior_crashes(5, 0) == 0
    assert plan.prior_crashes(5, 1) == 1
    assert plan.prior_crashes(5, 3) == 2  # capped at the spec count
    # persistent crashes never convert into recovered accounting
    assert plan.prior_crashes(9, 3) == 0
    assert plan.crash_due(5, 1) is not None
    assert plan.crash_due(5, 2) is None
    assert plan.crashes()
    assert not FaultPlan().crashes()


# -- the containment boundary -------------------------------------------------


def _eval(boundary, seed, plan_stage="compile", fail=None):
    """Run a two-stage thunk under the boundary; ``fail`` raises a real
    exception at the named stage."""
    def thunk(probe):
        probe("generate")
        if fail == "generate":
            raise ValueError("real generate bug")
        probe("compile")
        if fail == "compile":
            raise ValueError("real compile bug")
        return seed * 10
    return boundary.evaluate(seed, thunk)


def test_boundary_transient_error_recovers():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(kind="error", stage="compile", seeds=(2,), count=2),))
    boundary = FailureBoundary("cell", faults=plan)
    value, record = _eval(boundary, 2)
    assert value == 20
    assert record.status == "recovered"
    assert (record.stage, record.kind, record.attempts) == \
        ("compile", "error", 3)
    assert boundary.failures == [record]


def test_boundary_persistent_error_quarantines():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(kind="error", stage="generate", seeds=(2,),
                  count=PERSISTENT),))
    boundary = FailureBoundary("cell", faults=plan)
    value, record = _eval(boundary, 2)
    assert value is None
    assert record.status == "quarantined"
    assert record.attempts == DEFAULT_MAX_ATTEMPTS
    assert record.error == "InjectedError"


def test_boundary_quarantines_hangs_immediately():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(kind="hang", seeds=(2,), count=PERSISTENT),))
    boundary = FailureBoundary("cell", faults=plan)

    def thunk(probe):
        probe("trace")
        return "unreached"
    value, record = boundary.evaluate(2, thunk)
    assert value is None
    assert (record.kind, record.attempts) == ("timeout", 1)
    assert record.error == "InjectedHang"


def test_boundary_attributes_real_exceptions_to_the_stage():
    boundary = FailureBoundary("cell")
    value, record = _eval(boundary, 2, fail="compile")
    assert value is None
    assert (record.stage, record.error) == ("compile", "ValueError")
    assert record.detail == "real compile bug"
    assert record.attempts == DEFAULT_MAX_ATTEMPTS


def test_boundary_never_contains_keyboard_interrupt():
    boundary = FailureBoundary("cell")

    def thunk(probe):
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        boundary.evaluate(1, thunk)
    assert boundary.failures == []


def test_boundary_simulates_crashes_serially():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(kind="crash", seeds=(2,), count=1),))
    boundary = FailureBoundary("cell", faults=plan)
    value, record = _eval(boundary, 2)
    assert value == 20
    assert (record.stage, record.kind, record.status, record.attempts) \
        == ("worker", "crash", "recovered", 2)
    persistent = FaultPlan(seed=1, specs=(
        FaultSpec(kind="crash", seeds=(2,), count=PERSISTENT),))
    boundary = FailureBoundary("cell", faults=persistent)
    value, record = _eval(boundary, 2)
    assert value is None
    assert (record.status, record.attempts) == \
        ("quarantined", DEFAULT_MAX_ATTEMPTS)


def test_boundary_escalates_crashes_for_the_supervisor():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(kind="crash", seeds=(2,), count=1),))
    boundary = FailureBoundary("cell", faults=plan,
                               escalate_crashes=True)
    with pytest.raises(InjectedCrash):
        _eval(boundary, 2)
    # one incarnation spent (crash_base=1): the respawned boundary
    # reconstructs the recovered record the serial run counts live
    respawned = FailureBoundary("cell", faults=plan, crash_base=1,
                                escalate_crashes=True)
    value, record = _eval(respawned, 2)
    assert value == 20
    assert (record.status, record.attempts) == ("recovered", 2)


def test_boundary_store_write_retries_then_gives_up():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec(kind="store", seeds=(2,), count=1),))
    boundary = FailureBoundary("cell", faults=plan)
    writes = []
    assert boundary.store_write(2, lambda: writes.append(1))
    assert writes == [1]
    assert boundary.failures[-1].status == "recovered"
    persistent = FaultPlan(seed=1, specs=(
        FaultSpec(kind="store", seeds=(2,), count=PERSISTENT),))
    boundary = FailureBoundary("cell", faults=persistent)
    assert not boundary.store_write(2, lambda: writes.append(2))
    assert writes == [1]  # the write never ran
    assert (boundary.failures[-1].stage,
            boundary.failures[-1].status) == ("store", "quarantined")


# -- record algebra and serialization -----------------------------------------


def _record(seed, cell="c", status="quarantined"):
    return FailureRecord(seed=seed, cell=cell, item="", stage="compile",
                         kind="error", error="E", detail="d",
                         digest="abc", attempts=1, status=status)


def test_merge_failures_is_a_sorted_dedup_union():
    a = [_record(3), _record(1)]
    b = [_record(1), _record(2)]
    merged = merge_failures(a, b)
    assert merged == sorted(set(a) | set(b))
    assert merge_failures(b, a) == merged  # commutative
    c = [_record(4)]
    assert merge_failures(merge_failures(a, b), c) == \
        merge_failures(a, merge_failures(b, c))  # associative
    assert merge_failures(merged, merged) == merged  # idempotent


def test_record_round_trip_and_census():
    records = [_record(1), _record(2, status="recovered")]
    assert failures_from_dicts(failures_to_dicts(records)) == \
        sorted(records)
    with pytest.raises(ValueError, match="missing field"):
        FailureRecord.from_dict({"seed": 1})
    census = failure_census(records)
    assert census == {("compile", "error", "E"): 2}
    timeout = record_failure(1, "c", "trace",
                             TimeoutError_(), attempts=1)
    assert timeout.kind == "timeout"


def test_artifact_failures_field_is_optional(chaos_campaign):
    payload = json.loads(chaos_campaign.to_json())
    assert payload["failures"]  # present when non-empty
    rebuilt = CampaignResult.from_json(chaos_campaign.to_json())
    assert rebuilt == chaos_campaign
    # pre-containment artifacts (no failures key) still load
    del payload["failures"]
    legacy = CampaignResult.from_dict(payload)
    assert legacy.failures == []
    # and a fault-free artifact never writes the key
    clean = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                         pool_size=2)
    assert "failures" not in json.loads(clean.to_json())


def test_campaign_merge_folds_failures(chaos_campaign):
    left = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                        pool_size=3, faults=CHAOS)
    right = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                         pool_size=3, seed_base=3, faults=CHAOS)
    merged = left.merge(right)
    assert merged == chaos_campaign
    assert right.merge(left).failures == merged.failures


# -- campaign chaos runs ------------------------------------------------------


def test_chaos_campaign_completes_and_degrades(clean_campaign,
                                               chaos_campaign):
    # quarantined: the hung seed 3 and the persistent-error seed 4
    assert [p.seed for p in chaos_campaign.programs] == [0, 1, 2, 5]
    by_seed = {r.seed: r for r in chaos_campaign.failures}
    assert by_seed[1].status == "recovered"
    assert (by_seed[3].kind, by_seed[3].status) == \
        ("timeout", "quarantined")
    assert (by_seed[4].stage, by_seed[4].status) == \
        ("generate", "quarantined")
    assert (by_seed[5].kind, by_seed[5].status) == \
        ("crash", "recovered")
    # successful seeds are bit-identical to the fault-free run
    clean = {p.seed: p for p in clean_campaign.programs}
    for program in chaos_campaign.programs:
        assert program == clean[program.seed]


def test_chaos_campaign_serial_equals_parallel(chaos_campaign):
    parallel = run_campaign_parallel(
        CompilerSpec("gcc", "trunk"), DebuggerSpec("gdb-like"),
        pool_size=POOL, workers=2, faults=CHAOS,
        sleeper=lambda delay: None)
    assert parallel == chaos_campaign


def test_hard_crash_supervision_completes():
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="crash", seeds=(2,), count=1, hard=True),))
    serial = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                          pool_size=4, faults=plan)
    parallel = run_campaign_parallel(
        CompilerSpec("gcc", "trunk"), DebuggerSpec("gdb-like"),
        pool_size=4, workers=2, faults=plan,
        sleeper=lambda delay: None)
    assert [p.seed for p in parallel.programs] == [0, 1, 2, 3]
    assert parallel == serial


def _campaign_rescue(plan, sleeper):
    parallel = run_campaign_parallel(
        CompilerSpec("gcc", "trunk"), DebuggerSpec("gdb-like"),
        pool_size=4, workers=2, faults=plan, sleeper=sleeper)
    serial = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                          pool_size=4, faults=plan)
    return parallel, serial, [p.seed for p in parallel.programs]


def _matrix_rescue(plan, sleeper):
    parallel = run_matrix_campaign_parallel(
        compilers=[CompilerSpec("gcc", "trunk")], debuggers=["gdb-like"],
        pool_size=4, workers=2, faults=plan, sleeper=sleeper)
    serial = run_matrix_campaign(
        compilers=[Compiler("gcc", "trunk")], debuggers=["gdb-like"],
        pool_size=4, faults=plan)
    cell = parallel.cell("gcc", "trunk", "gdb-like")
    return parallel, serial, [p.seed for p in cell.programs]


def _verify_rescue(plan, sleeper):
    parallel = run_verify_campaign_parallel(
        CompilerSpec("gcc", "trunk"), pool_size=4, levels=("O0", "O2"),
        workers=2, faults=plan, sleeper=sleeper)
    serial = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=4,
                                 levels=("O0", "O2"), faults=plan)
    return parallel, serial, [p.seed for p in parallel.programs]


def _bisect_rescue(plan, sleeper):
    # Of the first 8 gcc seeds only 2 and 6 carry witnesses.
    campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                            pool_size=8)
    parallel = run_bisect_campaign_parallel(
        campaign, workers=2, faults=plan, sleeper=sleeper)
    serial = run_bisect_campaign(campaign, faults=plan)
    return parallel, serial, sorted({r.seed for r in parallel.records})


@pytest.mark.parametrize("driver,survivors", [
    (_campaign_rescue, [0, 1, 3]),
    (_matrix_rescue, [0, 1, 3]),
    (_verify_rescue, [0, 1, 3]),
    (_bisect_rescue, [6]),
], ids=["campaign", "matrix", "verify", "bisect"])
def test_persistent_crash_is_rescued_and_quarantined(driver, survivors):
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="crash", seeds=(2,), count=PERSISTENT),))
    delays = []
    parallel, serial, seeds = driver(plan, delays.append)
    # the run completed: every seed but the crashing one evaluated
    assert seeds == survivors
    # one quarantine record per evaluated pair (per witness for bisect)
    records = parallel.failures
    assert records
    assert len({(r.seed, r.item) for r in records}) == len(records)
    for record in records:
        assert (record.seed, record.stage, record.kind, record.status) \
            == (2, "worker", "crash", "quarantined")
        assert record.attempts == DEFAULT_MAX_ATTEMPTS
    # the supervisor backed off before each respawn
    assert delays and all(delay > 0.0 for delay in delays)
    assert parallel.to_json() == serial.to_json()


def test_retry_policy_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.1,
                         backoff_factor=2.0, backoff_limit=0.5,
                         jitter=0.5)
    for attempt in range(6):
        delay = policy.delay("shard-3", attempt)
        assert delay == policy.delay("shard-3", attempt)
        cap = min(0.5, 0.1 * 2.0 ** attempt)
        assert 0.5 * cap <= delay < 1.5 * cap
    assert policy.delay("shard-3", 1) != policy.delay("shard-4", 1)


# -- store: persistence, resume, interrupt ------------------------------------


def test_store_records_and_resume_retries(tmp_path, clean_campaign):
    path = str(tmp_path / "campaign.sqlite")
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="error", stage="compile", seeds=(1, 4),
                  count=PERSISTENT),))
    with CampaignStore(path) as store:
        degraded = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                                pool_size=POOL, store=store,
                                faults=plan)
        assert {r.seed for r in degraded.failures} == {1, 4}
        run = store.runs()[0].id
        assert len(store.failures_for(run)) == 2
    # resume without the fault: the quarantined seeds retry and heal
    with CampaignStore(path) as store:
        healed = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                              pool_size=POOL, store=store)
        assert len(store.failures_for(run)) == 0
    assert healed == clean_campaign


def test_no_retry_failed_carries_quarantine_forward(tmp_path):
    path = str(tmp_path / "campaign.sqlite")
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="error", stage="compile", seeds=(1,),
                  count=PERSISTENT),))
    with CampaignStore(path) as store:
        degraded = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                                pool_size=POOL, store=store,
                                faults=plan)
    with CampaignStore(path) as store:
        hits = store.stats.hits
        carried = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                               pool_size=POOL, store=store,
                               retry_failed=False)
        # seed 1 was not recomputed: its record rode along verbatim
        assert carried.failures == degraded.failures
        assert [p.seed for p in carried.programs] == \
            [p.seed for p in degraded.programs]
        assert store.stats.hits > hits  # the rest replayed


class _InterruptingStore:
    """Delegates to a real store but interrupts the Nth result write."""

    def __init__(self, store, after):
        self._store = store
        self._after = after
        self.writes = 0
        self.checkpoints = 0

    def __getattr__(self, name):
        return getattr(self._store, name)

    def put_result(self, *args, **kwargs):
        self.writes += 1
        if self.writes > self._after:
            raise KeyboardInterrupt
        return self._store.put_result(*args, **kwargs)

    def checkpoint(self):
        self.checkpoints += 1
        return self._store.checkpoint()


def test_keyboard_interrupt_flushes_the_store(tmp_path):
    path = str(tmp_path / "campaign.sqlite")
    with CampaignStore(path) as store:
        wrapper = _InterruptingStore(store, after=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                         pool_size=POOL, store=wrapper)
        assert wrapper.checkpoints == 1
    with CampaignStore(path) as store:
        run = store.runs()[0].id
        assert store.result_count(run) == 2  # the flushed prefix


# -- the other drivers under chaos --------------------------------------------


def test_verify_campaign_contains_faults():
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="error", stage="verify", seeds=(1,),
                  count=PERSISTENT),
        FaultSpec(kind="crash", seeds=(2,), count=1),))
    serial = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=4,
                                 faults=plan)
    assert {r.seed: r.status for r in serial.failures} == \
        {1: "quarantined", 2: "recovered"}
    parallel = run_verify_campaign_parallel(
        CompilerSpec("gcc", "trunk"), pool_size=4, workers=2,
        faults=plan, sleeper=lambda delay: None)
    assert parallel == serial
    clean = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=4)
    verified = {p.seed for p in serial.programs}
    assert [p for p in clean.programs if p.seed in verified] == \
        list(serial.programs)


def test_matrix_campaign_replicates_shared_failures():
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="error", stage="generate", seeds=(2,),
                  count=PERSISTENT),))
    matrix = run_matrix_campaign(families=("gcc",), pool_size=4,
                                 faults=plan)
    # the shared-frontend failure lands in every cell, cell-renamed
    for key, cell in matrix.cells.items():
        (record,) = cell.failures
        assert record.seed == 2
        assert record.cell == f"{key[0]}-{key[1]}/{key[2]}"
    assert len(matrix.failures) == len(matrix.cells)
    rebuilt = type(matrix).from_json(matrix.to_json())
    assert rebuilt == matrix
    clean = run_matrix_campaign(families=("gcc",), pool_size=4)
    for key, cell in matrix.cells.items():
        survivors = {p.seed for p in cell.programs}
        assert [p for p in clean.cells[key].programs
                if p.seed in survivors] == list(cell.programs)


def test_reduction_campaign_contains_faults():
    campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                            pool_size=POOL)
    baseline = run_reduction_campaign(campaign, limit=2)
    assert baseline.records  # the corpus has witnesses to reduce
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(kind="error", stage="reduce",
                  seeds=(baseline.records[0].seed,),
                  count=PERSISTENT),))
    degraded = run_reduction_campaign(campaign, limit=2, faults=plan)
    assert degraded.failures
    for record in degraded.failures:
        assert record.status == "quarantined"
        assert record.stage == "reduce"
        assert record.item  # witness-grained containment
    poisoned = {r.seed for r in degraded.failures}
    assert [r for r in baseline.records if r.seed not in poisoned] == \
        list(degraded.records)
    rebuilt = type(degraded).from_json(degraded.to_json())
    assert rebuilt == degraded


# -- reporting ----------------------------------------------------------------


def test_failures_table_and_manifest(tmp_path, chaos_campaign,
                                     clean_campaign):
    from repro.report import failures_table, render
    from repro.report.manifest import deliverables_for, render_all
    table = failures_table(chaos_campaign)
    assert table.kind == "failures"
    assert len(table.rows) == len(chaos_campaign.failures)
    assert "quarantined" in render(table, "text")
    assert "Census" in table.note
    # the deliverable appears only for degraded artifacts
    assert "failures" in dict(deliverables_for(chaos_campaign))
    assert "failures" not in dict(deliverables_for(clean_campaign))
    manifest = render_all([chaos_campaign], str(tmp_path / "out"),
                          formats=("md",))
    assert "failures" in {r["deliverable"] for r in
                          manifest["reports"]}


def test_faults_cli_end_to_end(tmp_path, capsys, chaos_campaign):
    from repro.pipeline.cli import main as campaign_cli
    from repro.report.cli import main as report_cli
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(CHAOS.to_json() + "\n", encoding="utf-8")
    artifact = tmp_path / "campaign.json"
    assert campaign_cli(["--family", "gcc", "--pool-size", str(POOL),
                         "--serial", "--faults", str(plan_path),
                         "--output", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "failures: 4 recorded (2 quarantined)" in out
    loaded = CampaignResult.from_json(
        artifact.read_text(encoding="utf-8"))
    assert loaded == chaos_campaign
    assert report_cli(["failures", str(artifact),
                       "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "InjectedHang" in out and "quarantined" in out


def test_faults_cli_rejects_bad_plans(tmp_path, capsys):
    from repro.pipeline.cli import main as campaign_cli
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope"}', encoding="utf-8")
    with pytest.raises(SystemExit):
        campaign_cli(["--pool-size", "1", "--serial",
                      "--faults", str(bad)])
    assert "--faults" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        campaign_cli(["--pool-size", "1", "--serial",
                      "--max-attempts", "0"])
    assert "--max-attempts" in capsys.readouterr().err
