"""Version-axis defect bisection.

Given a witness from a campaign — a seed, family, optimization level,
and conjecture violation — this package binary-searches the family's
release axis (``GCC_VERSIONS`` / ``CLANG_VERSIONS``) for the first-bad
and last-good version of every fired defect, reusing the witness's
:class:`~repro.compilers.frontend.FrontendSession` so each probe is a
backend-only recompile.  Probe verdicts are memoized per
``(version, level)``, and single-defect probes are read off one
defect-free compile's hook-query log per pipeline; non-monotone defect histories (a defect alive
only in a middle segment of the axis) are handled by an oldest-first
segment scan before the boundary search.

Outcomes ship as a mergeable ``repro-bisect/1`` artifact
(:class:`BisectCampaignResult`), produced by the serial driver
(:func:`run_bisect_campaign`) or the sharded one
(:func:`run_bisect_campaign_parallel`) — bit-identical either way —
with store-backed resume keyed by witness fingerprint.  The ``repro-
bisect`` console script (:mod:`repro.bisect.cli`) chains find →
bisect; ``repro-report bisect`` renders the defect × version-range
regression table.
"""

from .campaign import (
    BISECT_SCHEMA, BisectCampaignResult, BisectRecord,
    run_bisect_campaign, witness_fingerprint,
)
from .core import (
    BisectOutcome, ProbeVerdict, VersionProber, bisect_defect,
    expected_window, family_versions, pass_support,
)
from .parallel import run_bisect_campaign_parallel

__all__ = [
    "BISECT_SCHEMA",
    "BisectCampaignResult",
    "BisectOutcome",
    "BisectRecord",
    "ProbeVerdict",
    "VersionProber",
    "bisect_defect",
    "expected_window",
    "family_versions",
    "pass_support",
    "run_bisect_campaign",
    "run_bisect_campaign_parallel",
    "witness_fingerprint",
]
