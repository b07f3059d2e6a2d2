"""Cross-subsystem merge-algebra suite.

Every artifact schema ships a shard ``merge()`` with the same
contract: associative, order-independent over arbitrary disjoint
seed-range splits, tolerant of shuffled level *display* orders, and
renormalizing to one canonical serialization.  This file pins that
contract once for all five schemas — campaign, matrix, verify, reduce
and bisect — from a single fixture factory, instead of one ad-hoc
copy per subsystem:

* random shard trees (any split, any fold order, any association)
  fold back to the byte-identical full artifact;
* shards whose levels were evaluated in a different *order* merge
  fine; a different level *set* is an error;
* merging independently-run shards equals one full run byte for byte;
* every artifact round-trips through its class and rejects a foreign
  schema tag;
* a merge rejects shards of a different identity (compiler, cell or
  cell set) and shards whose units overlap.
"""

import dataclasses
import json
import random

import pytest

from repro.bisect import BisectCampaignResult, run_bisect_campaign
from repro.compilers import Compiler
from repro.debugger import GdbLike
from repro.pipeline import (
    CampaignResult, MatrixCampaignResult, ReductionCampaignResult,
    fold_results, run_campaign, run_matrix_campaign,
    run_reduction_campaign,
)
from repro.report.model import load_artifact
from repro.staticcheck import VerifyCampaignResult, run_verify_campaign

POOL = 6
VERIFY_POOL = 4
MATRIX_POOL = 4
MATRIX_KEY = ("gcc", "trunk", "gdb-like")


def _gcc():
    return Compiler("gcc", "trunk")


def _campaign_slice(campaign, low, high, levels=None):
    return CampaignResult(
        family=campaign.family, version=campaign.version,
        levels=list(levels or campaign.levels), pool_size=high - low,
        programs=campaign.programs[low:high])


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(_gcc(), GdbLike(), pool_size=POOL)


@pytest.fixture(scope="module")
def cases(campaign):
    """One factory per schema: the full result, a seed-range shard
    slicer (levels overridable where the schema has levels), an
    independent per-range runner, a shard of another identity with the
    error a merge with it raises, and the error overlapping shards
    raise."""
    verify = run_verify_campaign(_gcc(), pool_size=VERIFY_POOL)
    matrix = run_matrix_campaign(compilers=[_gcc()],
                                 debuggers=[GdbLike()],
                                 pool_size=MATRIX_POOL)
    reduce_full = run_reduction_campaign(campaign, debugger=GdbLike())
    bisect_full = run_bisect_campaign(campaign)

    def campaign_shard(low, high, levels=None):
        return _campaign_slice(campaign, low, high, levels)

    def verify_shard(low, high, levels=None):
        return VerifyCampaignResult(
            family=verify.family, version=verify.version,
            levels=list(levels or verify.levels), pool_size=high - low,
            programs=verify.programs[low:high])

    def matrix_shard(low, high, levels=None):
        shard = MatrixCampaignResult(pool_size=high - low)
        shard.cells[MATRIX_KEY] = _campaign_slice(
            matrix.cells[MATRIX_KEY], low, high, levels)
        shard.fingerprints = {
            seed: fingerprint
            for seed, fingerprint in matrix.fingerprints.items()
            if low <= seed < high}
        return shard

    # Aggregate oracle accounting is not per-record, so slice-based
    # shards park the whole tally on the seed-0 shard: key-wise
    # summation must restore it wherever it lands in the fold.
    def reduce_shard(low, high):
        return ReductionCampaignResult(
            family=reduce_full.family, version=reduce_full.version,
            debugger=reduce_full.debugger, engine=reduce_full.engine,
            pool_size=high - low,
            records=[r for r in reduce_full.records
                     if low <= r.seed < high],
            stats=dict(reduce_full.stats) if low == 0 else {})

    def bisect_shard(low, high):
        return BisectCampaignResult(
            family=bisect_full.family, version=bisect_full.version,
            pool_size=high - low,
            records=[r for r in bisect_full.records
                     if low <= r.seed < high],
            stats=dict(bisect_full.stats) if low == 0 else {})

    return {
        "campaign": dict(
            full=campaign, seeds=POOL, shard=campaign_shard,
            levels=list(campaign.levels),
            independent=lambda low, high: run_campaign(
                _gcc(), GdbLike(), pool_size=high - low,
                seed_base=low),
            other=(dataclasses.replace(campaign, version="8", programs=[]),
                   "different compilers"),
            overlap="overlapping seed ranges"),
        "matrix": dict(
            full=matrix, seeds=MATRIX_POOL, shard=matrix_shard,
            levels=list(matrix.cells[MATRIX_KEY].levels),
            independent=lambda low, high: run_matrix_campaign(
                compilers=[_gcc()], debuggers=[GdbLike()],
                pool_size=high - low, seed_base=low),
            other=(MatrixCampaignResult(), "different cell sets"),
            overlap="overlapping seed ranges"),
        "verify": dict(
            full=verify, seeds=VERIFY_POOL, shard=verify_shard,
            levels=list(verify.levels),
            independent=lambda low, high: run_verify_campaign(
                _gcc(), pool_size=high - low, seed_base=low),
            other=(dataclasses.replace(verify, family="clang", programs=[]),
                   "different compilers"),
            overlap="overlapping seed ranges"),
        "reduce": dict(
            full=reduce_full, seeds=POOL, shard=reduce_shard,
            independent=lambda low, high: run_reduction_campaign(
                _campaign_slice(campaign, low, high),
                debugger=GdbLike()),
            other=(dataclasses.replace(reduce_full, engine="reference",
                                       records=[]),
                   "different cells"),
            overlap="overlapping witnesses"),
        "bisect": dict(
            full=bisect_full, seeds=POOL, shard=bisect_shard,
            independent=lambda low, high: run_bisect_campaign(
                _campaign_slice(campaign, low, high)),
            other=(dataclasses.replace(bisect_full, family="clang",
                                       records=[]),
                   "different cells"),
            overlap="overlapping witnesses"),
    }


SCHEMAS = ["campaign", "matrix", "verify", "reduce", "bisect"]
LEVELED = ["campaign", "matrix", "verify"]


@pytest.mark.parametrize("schema", SCHEMAS)
def test_random_shard_trees_fold_to_identity(cases, schema):
    case = cases[schema]
    reference = case["full"].to_json(indent=2)
    # The artifact round-trips through the typed loader first ...
    assert load_artifact(reference).to_json(indent=2) == reference
    rng = random.Random(100 + SCHEMAS.index(schema))
    seeds = case["seeds"]
    for _ in range(6):
        cuts = sorted(rng.sample(range(1, seeds),
                                 rng.randint(1, min(3, seeds - 1))))
        bounds = [0] + cuts + [seeds]
        shards = [case["shard"](low, high)
                  for low, high in zip(bounds, bounds[1:])]
        rng.shuffle(shards)
        # ... and any split, any fold order, any association
        # renormalizes back to the same bytes.
        left = fold_results(shards)
        right = shards[-1]
        for shard in reversed(shards[:-1]):
            right = shard.merge(right)
        assert left.to_json(indent=2) == reference
        assert right.to_json(indent=2) == reference


@pytest.mark.parametrize("schema", LEVELED)
def test_merge_tolerates_shuffled_level_order(cases, schema):
    case = cases[schema]
    half = case["seeds"] // 2
    left = case["shard"](0, half)
    # The right shard evaluated its levels backwards: display order
    # comes from the left-most shard, the merge is unaffected.
    right = case["shard"](half, case["seeds"],
                          levels=list(reversed(case["levels"])))
    merged = left.merge(right)
    assert merged.to_json(indent=2) == case["full"].to_json(indent=2)
    # A different level *set* is a real identity mismatch.
    bad = case["shard"](half, case["seeds"], levels=["O1"])
    with pytest.raises(ValueError, match="different level"):
        left.merge(bad)


@pytest.mark.parametrize("schema", SCHEMAS)
def test_merged_independent_shards_match_single_run(cases, schema):
    case = cases[schema]
    half = case["seeds"] // 2
    shards = [case["independent"](0, half),
              case["independent"](half, case["seeds"])]
    merged = fold_results(shards)
    assert merged.to_json(indent=2) == case["full"].to_json(indent=2)


@pytest.mark.parametrize("schema", SCHEMAS)
def test_artifact_round_trip(cases, schema):
    full = cases[schema]["full"]
    text = full.to_json(indent=2)
    assert type(full).from_json(text) == full
    # indentation is cosmetic only
    assert type(full).from_json(full.to_json()) == full
    data = json.loads(text)
    assert data["schema"] == type(full).SCHEMA
    assert "failures" not in data    # omitted when empty


@pytest.mark.parametrize("schema", SCHEMAS)
def test_from_dict_rejects_foreign_schema(cases, schema):
    full = cases[schema]["full"]
    data = full.to_dict()
    data["schema"] = "repro-campaign/999"
    with pytest.raises(ValueError, match="schema"):
        type(full).from_dict(data)
    with pytest.raises(ValueError, match="schema"):
        type(full).from_json("{}")


@pytest.mark.parametrize("schema", SCHEMAS)
def test_merge_rejects_identity_mismatch_and_overlap(cases, schema):
    case = cases[schema]
    other, message = case["other"]
    with pytest.raises(ValueError, match=message):
        case["full"].merge(other)
    # Merging a shard with itself would double-count every unit.
    with pytest.raises(ValueError, match=case["overlap"]):
        case["full"].merge(case["full"])
