"""Injected defect model and the catalog of paper issues."""

from .defects import (
    Defect, DefectHooks, FiredDefect, NullHooks, QueryLog, all_of,
    rate_selector, requires_pass, stable_hash,
)
from .catalog import (
    CLANG_VERSIONS, GCC_VERSIONS, HISTORICAL_DEFECTS, ISSUES, CatalogIssue,
    defects_for_family, issue_by_tracker, issue_counts, issues_for,
)
