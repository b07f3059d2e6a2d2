"""Persistent campaign store: resumable runs over a sqlite database.

:class:`CampaignStore` is the durable write-through backing of every
campaign driver — ``run_campaign`` / ``run_matrix_campaign`` /
``run_verify_campaign`` / ``run_reduction_campaign`` /
``run_bisect_campaign`` accept one and skip already-evaluated units
(a seed, or a witness of a seed), so re-running an interrupted or
extended campaign only compiles the delta while producing results
bit-identical to an uninterrupted serial run.  The ``repro-db`` console
script (:mod:`repro.store.cli`) creates stores, ingests existing JSON
artifacts, exports artifacts back out, and reports size/dedup totals.

>>> from repro.store import CampaignStore
>>> store = CampaignStore(":memory:")
>>> store.stats.as_dict()["hits"]
0
"""

from .db import (
    BUSY_MAX_ATTEMPTS, DB_SCHEMA, CampaignStore, RunInfo,
    StoreBusyError, StoreError, StoreStats, busy_delay, canonical_json,
    text_digest,
)

__all__ = [
    "BUSY_MAX_ATTEMPTS", "DB_SCHEMA", "CampaignStore", "RunInfo",
    "StoreBusyError", "StoreError", "StoreStats", "busy_delay",
    "canonical_json", "text_digest",
]
