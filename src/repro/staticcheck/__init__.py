"""Static debug-info verification (the ``llvm-dwarfdump --verify``
analogue over our artifacts).

The package takes a linked :class:`~repro.target.isa.Executable` plus
the lowered IR module it was produced from and emits structured
:class:`~repro.staticcheck.findings.Finding` records — no debugger, no
VM execution.  Three check families:

* :mod:`~repro.staticcheck.dies` — DIE-tree and location-list
  well-formedness;
* :mod:`~repro.staticcheck.lines` — line-table sanity against the
  instruction stream;
* :mod:`~repro.staticcheck.availability` — location coverage vs. a
  replay of codegen's debug-event stream, classified with
  :mod:`repro.ir.liveness` facts.

:mod:`~repro.staticcheck.campaign` scales the verifier to generated
program pools (serial + sharded) and serializes ``repro-verify/1``
artifacts; ``repro-verify`` (:mod:`~repro.staticcheck.cli`) is the
console entry point, and ``repro-report verify`` joins a stored verify
artifact against a dynamic campaign to classify each catalog defect as
statically detectable, dynamic-only, or both.
"""

from .availability import StaticCheckError, check_availability
from .campaign import (
    VERIFY_SCHEMA, VerifyCampaignResult, VerifyProgramResult,
    run_verify_campaign, run_verify_campaign_parallel,
    run_verify_campaign_seeds,
)
from .dies import check_dies
from .findings import CHECK_POINTS, Finding, sorted_findings
from .lines import check_lines
from .verifier import verify_compilation, verify_executable

__all__ = [
    "CHECK_POINTS",
    "Finding",
    "StaticCheckError",
    "VERIFY_SCHEMA",
    "VerifyCampaignResult",
    "VerifyProgramResult",
    "check_availability",
    "check_dies",
    "check_lines",
    "run_verify_campaign",
    "run_verify_campaign_parallel",
    "run_verify_campaign_seeds",
    "sorted_findings",
    "verify_compilation",
    "verify_executable",
]
