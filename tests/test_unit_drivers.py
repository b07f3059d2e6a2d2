"""One byte-identity suite for every keyed-unit driver.

The matrix, verify, bisection and reduction drivers run through one
unit loop (:func:`repro.pipeline.units.run_units`), one shard type
(:class:`repro.pipeline.parallel.UnitShard`) and one store table, so
they share one contract: however a driver is run, its artifact has the
bytes of the storeless serial run.  Each case runs one driver one way
and compares ``to_json()``:

* ``sharded`` — the ``*_parallel`` driver over two spawned worker
  processes (reduction has no sharded driver);
* ``inprocess`` — the same driver with ``workers=1``: every shard runs
  in the calling process;
* ``resumed`` — half of the units written through a store, then the
  whole run resumed from it (sharded where the driver shards); the
  store's export reproduces the same bytes too;
* ``chaos`` — a recovering fault plan (transient errors and a soft
  worker crash): the run under the plan equals the storeless serial
  run under the same plan, its failure records are all ``recovered``,
  and without them the artifact equals the clean run's;
* ``quarantined`` — a persistent error on one seed: the store-backed
  run equals the storeless serial run under the same plan, and so does
  the store's export (``pool_size`` counts the quarantined seed).

Pools are tiny so the whole suite stays fast.  The bisection case of
``resumed`` also pins the export order of a store a sharded run filled
(witness rows are ordered by seed, then by index within the seed).
"""

import json

import pytest

from repro.bisect import run_bisect_campaign, run_bisect_campaign_parallel
from repro.compilers import Compiler, CompilerSpec
from repro.debugger import GdbLike
from repro.faults import PERSISTENT, FaultPlan, FaultSpec
from repro.pipeline import (
    run_campaign, run_matrix_campaign, run_matrix_campaign_parallel,
    run_reduction_campaign,
)
from repro.staticcheck import (
    run_verify_campaign, run_verify_campaign_parallel,
)
from repro.store import CampaignStore

POOL = 4
LEVELS = ("O1", "O2")
SHARDED = {"workers": 2, "start_method": "spawn"}

#: Every fault recovers: a transient generate error on seeds 1 and 6
#: and one soft worker crash on seed 2 (seeds 2 and 6 are the witness
#: campaign's only witness seeds).
RECOVERING = FaultPlan(seed=11, specs=(
    FaultSpec(kind="error", stage="generate", seeds=(1, 6), count=1),
    FaultSpec(kind="crash", seeds=(2,), count=1),
))

#: A generate error on seed 2 that never recovers: the seed (and its
#: one witness) is quarantined.
QUARANTINING = FaultPlan(seed=11, specs=(
    FaultSpec(kind="error", stage="generate", seeds=(2,),
              count=PERSISTENT),
))
PLANS = {"chaos": RECOVERING, "quarantined": QUARANTINING}


@pytest.fixture(scope="module")
def witnesses():
    """Eight gcc seeds: one witness on seed 2, seven on seed 6."""
    return run_campaign(Compiler("gcc", "trunk"), GdbLike(), pool_size=8,
                        levels=LEVELS)


class Matrix:
    def serial(self, half=False, **options):
        return run_matrix_campaign(
            compilers=[Compiler("gcc", "trunk")],
            debuggers=["gdb-like", "lldb-like"],
            pool_size=POOL // 2 if half else POOL, levels=LEVELS,
            **options)

    def sharded(self, **options):
        return run_matrix_campaign_parallel(
            compilers=[CompilerSpec("gcc", "trunk")],
            debuggers=["gdb-like", "lldb-like"], pool_size=POOL,
            levels=LEVELS, **{**SHARDED, **options})

    def export(self, store):
        return store.export_matrix()


class Verify:
    def serial(self, half=False, **options):
        return run_verify_campaign(
            Compiler("gcc", "trunk"), pool_size=POOL // 2 if half else POOL,
            levels=("O0", "O2"), **options)

    def sharded(self, **options):
        return run_verify_campaign_parallel(
            CompilerSpec("gcc", "trunk"), pool_size=POOL,
            levels=("O0", "O2"), **{**SHARDED, **options})

    def export(self, store):
        (run,) = store.runs()
        return store.load_run(run.id)


class Bisect:
    def __init__(self, campaign):
        self.campaign = campaign

    def serial(self, half=False, **options):
        return run_bisect_campaign(self.campaign, limit=4 if half else None,
                                   **options)

    def sharded(self, **options):
        return run_bisect_campaign_parallel(self.campaign,
                                            **{**SHARDED, **options})

    def export(self, store):
        (run,) = store.runs()
        return store.load_run(run.id)


class Reduction:
    sharded = None

    def __init__(self, campaign):
        self.campaign = campaign

    def serial(self, half=False, **options):
        return run_reduction_campaign(
            self.campaign, debugger=GdbLike(), max_steps=20,
            with_triage=False, limit=1 if half else 2, **options)

    def export(self, store):
        (run,) = store.runs()
        return store.load_run(run.id)


DRIVERS = {"matrix": Matrix, "verify": Verify, "bisect": Bisect,
           "reduction": Reduction}
CASES = [(name, mode) for name in DRIVERS
         for mode in ("sharded", "inprocess", "resumed", "chaos",
                      "quarantined")
         if not (name == "reduction" and mode in ("sharded", "inprocess"))]


@pytest.fixture(scope="module")
def serial_runs():
    """Storeless serial artifacts, memoized per (driver, plan)."""
    return {}


def _serial(serial_runs, name, driver, plan=None):
    key = (name, plan)
    if key not in serial_runs:
        serial_runs[key] = driver.serial(faults=PLANS.get(plan)).to_json()
    return serial_runs[key]


def _strip_failures(artifact_json):
    document = json.loads(artifact_json)
    for part in [document] + [cell["campaign"]
                              for cell in document.get("cells", ())]:
        part.pop("failures", None)
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("name,mode", CASES,
                         ids=[f"{name}-{mode}" for name, mode in CASES])
def test_every_run_mode_matches_the_storeless_serial_run(
        name, mode, witnesses, serial_runs, tmp_path):
    driver = DRIVERS[name](witnesses) if name in ("bisect", "reduction") \
        else DRIVERS[name]()
    reference = _serial(serial_runs, name, driver)
    path = str(tmp_path / "store.sqlite")
    if mode == "sharded":
        assert driver.sharded().to_json() == reference
    elif mode == "inprocess":
        assert driver.sharded(workers=1).to_json() == reference
    elif mode == "resumed":
        with CampaignStore(path) as store:
            driver.serial(half=True, store=store)
        if driver.sharded is not None:
            resumed = driver.sharded(store_path=path)
        else:
            with CampaignStore(path) as store:
                resumed = driver.serial(store=store)
                assert store.stats.hits == 1   # the stored half
        assert resumed.to_json() == reference
        with CampaignStore(path) as store:
            assert driver.export(store).to_json() == reference
    elif mode == "chaos":
        if driver.sharded is not None:
            chaos = driver.sharded(faults=RECOVERING)
        else:
            with CampaignStore(path) as store:
                chaos = driver.serial(store=store, faults=RECOVERING)
        assert chaos.to_json() == _serial(serial_runs, name, driver,
                                          "chaos")
        assert chaos.failures
        assert {record.status for record in chaos.failures} == \
            {"recovered"}
        assert _strip_failures(chaos.to_json()) == reference
    else:
        expected = _serial(serial_runs, name, driver, "quarantined")
        with CampaignStore(path) as store:
            stored = driver.serial(store=store, faults=QUARANTINING)
        assert {(record.seed, record.status)
                for record in stored.failures} == {(2, "quarantined")}
        assert stored.to_json() == expected
        with CampaignStore(path) as store:
            assert driver.export(store).to_json() == expected
