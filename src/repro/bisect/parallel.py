"""Sharded bisection campaigns over the shared spawn machinery.

Bisection work units are witnesses, and witnesses of one seed share a
prober cache — so shards are contiguous *program slices* of the input
campaign (never splitting a seed), serialized as ``repro-campaign/1``
JSON so the slice travels in a picklable
:class:`~repro.pipeline.parallel.UnitShard` like every other driver's
work.  Each worker runs the one unit loop
(:func:`~repro.pipeline.units.run_units`) over its slice's
:func:`~repro.bisect.campaign.bisect_workload`; the merged result is
bit-identical to one serial run because every recorded value is a
function of the witness alone (see :mod:`repro.bisect.campaign`).
Supervision — respawn with the death count, then an in-driver rescue
with crash escalation off — is the same
:func:`~repro.pipeline.parallel.map_unit_shards` path as the matrix
and verify drivers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..faults.boundary import DEFAULT_MAX_ATTEMPTS
from ..faults.plan import FaultPlan
from ..pipeline.campaign import CampaignResult
from ..pipeline.parallel import RetryPolicy, map_unit_shards, open_store
from ..pipeline.results import fold_results
from ..pipeline.units import Workload
from .campaign import (
    BisectCampaignResult, bisect_workload, run_bisect_campaign,
)


def _slice_workload(campaign_json: str, discover: bool,
                    defects: Tuple[str, ...]) -> Workload:
    """A shard's :class:`~repro.pipeline.parallel.UnitShard` builder:
    the bisection of one program slice (a ``repro-campaign/1``
    document, sliced at seed boundaries so the per-seed prober cache
    never straddles workers)."""
    return bisect_workload(CampaignResult.from_json(campaign_json),
                           discover=discover, defects=defects)


def _program_slices(campaign: CampaignResult, n_shards: int
                    ) -> List[CampaignResult]:
    """At most ``n_shards`` contiguous program slices (at least one,
    possibly empty) as self-contained sub-campaigns.

    Each slice keeps the campaign's ``pool_size``, so every shard
    records the same run attribute (the merged sum is overridden with
    it afterwards); campaign-level failure records stay behind, since
    bisection results carry only bisection failures.
    """
    programs = campaign.programs
    n_shards = max(1, min(len(programs), n_shards))
    base, extra = divmod(len(programs), n_shards)
    slices = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunk = programs[start:start + size]
        start += size
        slices.append(CampaignResult(
            family=campaign.family, version=campaign.version,
            levels=list(campaign.levels), pool_size=campaign.pool_size,
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
        with open_store(store_path) as store:
            return run_bisect_campaign(
                campaign, limit=limit, discover=discover,
                defects=defects, store=store, faults=faults,
                max_attempts=max_attempts, retry_failed=retry_failed)
    merged = fold_results(map_unit_shards(
        _slice_workload,
        lambda n: [(part.to_json(), discover, tuple(defects))
                   for part in _program_slices(campaign, n)],
        workers, start_method, store_path=store_path, faults=faults,
        max_attempts=max_attempts, retry_failed=retry_failed,
        retry=retry, sleeper=sleeper))
    # Every shard reports the campaign's pool; the merge summed them.
    merged.pool_size = campaign.pool_size
    return merged
