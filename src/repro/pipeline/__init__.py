"""End-to-end campaigns, classification, reduction, and reporting."""

from .campaign import (
    CAMPAIGN_SCHEMA, CampaignResult, ProgramResult, ViolationKey,
    run_campaign, run_campaign_on_programs, run_campaign_seeds,
    test_program, test_program_full,
)
from .classify import ClassifiedViolation, classify_violation, dwarf_category
from .matrix import (
    MATRIX_SCHEMA, MatrixCampaignResult, run_matrix_campaign,
    run_matrix_campaign_seeds, run_matrix_study,
)
from .parallel import (
    RetryPolicy, StudyShard, UnitShard, run_campaign_parallel,
    run_matrix_campaign_parallel, run_study_parallel, run_study_shard,
    run_unit_shard,
)
from .reduction import (
    REDUCE_SCHEMA, ReductionCampaignResult, ReductionRecord,
    iter_witnesses, run_reduction_campaign,
)
from .results import fold_results
