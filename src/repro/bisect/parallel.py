"""Sharded bisection campaigns over the shared spawn machinery.

Bisection work units are witnesses, and witnesses of one seed share a
prober cache — so shards are contiguous *program slices* of the input
campaign (never splitting a seed), serialized as ``repro-campaign/1``
JSON so a :class:`BisectShard` is fully picklable across the spawn
boundary.  Workers run the serial driver per slice; the merged result
is bit-identical to one serial run because every recorded value is a
function of the witness alone (see :mod:`repro.bisect.campaign`).
Supervision is :func:`~repro.pipeline.parallel._map_shards`'s one
path for every sharded driver: a :class:`BisectShard` carries
``crash_base`` and ``escalate_crashes``, so a dying worker's shard
respawns with its death count and, past the retry bound, the same
worker entry point re-runs it in the driver with crash escalation off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..pipeline.campaign import CampaignResult
from ..pipeline.parallel import (
    SHARDS_PER_WORKER, RetryPolicy, _map_shards, _open_store,
    default_workers,
)
from .campaign import (
    BISECT_SCHEMA, BisectCampaignResult, merge_bisect_results,
    run_bisect_campaign,
)


@dataclass(frozen=True)
class BisectShard:
    """One worker's unit of bisection work (fully picklable).

    ``campaign_json`` is the shard's program slice as a complete
    ``repro-campaign/1`` document — sliced at seed boundaries, so the
    per-seed prober cache never straddles workers.
    """

    campaign_json: str
    discover: bool = True
    defects: Tuple[str, ...] = ()
    store_path: Optional[str] = None
    faults: Optional[FaultPlan] = None
    crash_base: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    retry_failed: bool = True
    escalate_crashes: bool = True


def run_bisect_shard(shard: BisectShard) -> BisectCampaignResult:
    """Worker entry point: the serial driver over one program slice
    (writing through the shared WAL-mode store when the shard names
    one).  Injected worker death escalates for the supervisor, except
    in its in-driver rescue run."""
    store = _open_store(shard.store_path)
    try:
        return run_bisect_campaign(
            CampaignResult.from_json(shard.campaign_json),
            discover=shard.discover, defects=shard.defects, store=store,
            faults=shard.faults, max_attempts=shard.max_attempts,
            crash_base=shard.crash_base,
            escalate_crashes=shard.escalate_crashes,
            retry_failed=shard.retry_failed)
    finally:
        if store is not None:
            store.close()


def _program_slices(campaign: CampaignResult, n_shards: int
                    ) -> List[CampaignResult]:
    """Contiguous program slices as self-contained sub-campaigns.

    Each slice's ``pool_size`` is its program count (the merged sum is
    overridden with the input campaign's afterwards — quarantined seeds
    make the slice total undercount); campaign-level failure records
    stay behind, since bisection results carry only bisection failures.
    """
    programs = campaign.programs
    base, extra = divmod(len(programs), n_shards)
    slices = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunk = programs[start:start + size]
        start += size
        slices.append(CampaignResult(
            family=campaign.family, version=campaign.version,
            levels=list(campaign.levels), pool_size=len(chunk),
            programs=chunk))
    return slices


def run_bisect_campaign_parallel(
        campaign: CampaignResult,
        discover: bool = True,
        defects: Tuple[str, ...] = (),
        workers: Optional[int] = None,
        start_method: str = "spawn",
        store_path: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_failed: bool = True,
        limit: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        sleeper: Optional[Callable[[float], None]] = None
        ) -> BisectCampaignResult:
    """Sharded, multi-process equivalent of :func:`run_bisect_campaign`.

    Bit-identical to the serial driver for the same arguments.
    ``limit`` is a *global* witness bound and therefore incompatible
    with sharding (shards cannot know how many witnesses earlier
    shards consumed) — a limited run falls back to the serial driver.
    ``store_path`` names a shared store every worker writes through
    with WAL-mode concurrent access.
    """
    if limit is not None:
        store = _open_store(store_path)
        try:
            return run_bisect_campaign(
                campaign, limit=limit, discover=discover,
                defects=defects, store=store, faults=faults,
                max_attempts=max_attempts, retry_failed=retry_failed)
        finally:
            if store is not None:
                store.close()
    if workers is None:
        workers = default_workers()
    if not campaign.programs:
        return BisectCampaignResult(family=campaign.family,
                                    version=campaign.version,
                                    pool_size=campaign.pool_size)
    n_shards = min(len(campaign.programs),
                   max(1, workers) * SHARDS_PER_WORKER)
    shards = [
        BisectShard(campaign_json=part.to_json(), discover=discover,
                    defects=tuple(defects), store_path=store_path,
                    faults=faults, max_attempts=max_attempts,
                    retry_failed=retry_failed)
        for part in _program_slices(campaign, n_shards)
    ]
    if retry is None:
        retry = RetryPolicy(max_attempts=max_attempts)
    merged = merge_bisect_results(
        _map_shards(run_bisect_shard, shards, workers, start_method,
                    retry=retry, sleeper=sleeper))
    # Slice pool sizes sum to the evaluated program count; the artifact
    # reports the campaign's nominal pool (quarantined seeds included),
    # exactly as the serial driver does.
    merged.pool_size = campaign.pool_size
    if store_path is not None:
        store = _open_store(store_path)
        try:
            run = store.run_id(BISECT_SCHEMA, campaign.family,
                               campaign.version, ())
            store.set_run_attrs(run, pool_size=campaign.pool_size)
        finally:
            store.close()
    return merged
