"""repro — reproduction of "Where Did My Variable Go? Poking Holes in
Incomplete Debug Information" (ASPLOS 2023).

The package contains a complete simulated toolchain: a mini-C frontend,
an optimizing compiler with two families (gcc-like / clang-like) and
multiple versions carrying injected, cataloged debug-information defects,
a DWARF-like debug-information model, a register-machine backend and VM,
two source-level debuggers, a Csmith-like program generator, the three
conjecture checkers of the paper, triage and reduction tooling, and the
quantitative metrics study.

Quickstart::

    from repro import Compiler, GdbLike, SourceFacts, check_all
    from repro.fuzz import generate_validated

    program = generate_validated(seed=42)
    compilation = Compiler("gcc", "trunk").compile(program, "O2")
    trace = GdbLike().trace(compilation.exe)
    for violation in check_all(SourceFacts(program), trace):
        print(violation)
"""

__version__ = "1.0.0"

from .analysis import SourceFacts, Symbol, SymbolTable, resolve
from .compilers import (
    Compilation, Compiler, CompilerSpec, FrontendSession,
    default_compilers, frontend_pool,
)
from .conjectures import (
    C1, C2, C3, CONJECTURES, CallArgumentChecker, ConstituentChecker,
    DecayChecker, Violation, check_all,
)
from .debugger import (
    AVAILABLE, OPTIMIZED_OUT, DebugTrace, Debugger, DebuggerSpec, GdbLike,
    LldbLike,
)
from .fuzz import FuzzOptions, SeedSpec, generate_program, generate_validated
from .lang import parse, print_program
from .metrics import (
    StudyResult, compare_traces, measure_program, run_study,
    run_study_seeds,
)
from .pipeline import (
    CampaignResult, MatrixCampaignResult, ReductionCampaignResult,
    classify_violation, dwarf_category, fold_results, run_campaign,
    run_campaign_on_programs, run_campaign_parallel, run_campaign_seeds,
    run_matrix_campaign,
    run_matrix_campaign_parallel, run_matrix_study, run_reduction_campaign,
    run_study_parallel, test_program,
)
from .reduce import (
    OracleStats, Reducer, ReductionOracle, ReductionResult,
    ReferenceReducer,
)
from .report import (
    TriageSummary, load_artifact, load_artifact_file, render, render_all,
)
from .store import CampaignStore, StoreError, StoreStats
from .target import VM, Executable, link, run_executable
from .triage import TriageResult, find_culprit_bisect, find_culprit_flags, triage
