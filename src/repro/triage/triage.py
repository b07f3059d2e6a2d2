"""Culprit-optimization identification (Section 4.3).

Two methods, as in the paper:

* **gcc-style flag search** — enumerate the level's boolean ``-fno-<pass>``
  flags, recompile with each one disabled, and keep the flags whose
  absence makes the violation disappear. Dependencies between passes can
  surface several flags (disabling inlining prevents downstream
  optimizations), so results go through a prioritization heuristic that
  ranks enabling passes (inlining, promotion) low.  The recompiles
  resume from checkpoints of one default pipeline run, taken before
  each flag's first pass.
* **clang-style bisection** — binary-search the smallest
  ``-opt-bisect-limit`` N at which the violation appears; the culprit is
  the N-th pass instance of the pipeline.

Both can legitimately fail (paper: "the method fails only when a behavior
cannot be controlled by flags or when more than one optimization should be
disabled"), reported as an empty result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.source_facts import SourceFacts
from ..compilers.compiler import Compilation, Compiler
from ..compilers.frontend import FrontendSession
from ..conjectures.base import Violation, check_all
from ..debugger.base import Debugger
from ..lang.ast_nodes import Program

#: Passes that merely *enable* later optimizations; disabling them masks
#: the true culprit, so they rank last (the paper's inlining heuristic).
LOW_PRIORITY_FLAGS = ("inline", "ipa-sra", "sroa", "mem2reg",
                      "ipa-pure-const")


@dataclass
class TriageResult:
    """Outcome of triaging one violation."""

    violation: Violation
    method: str                      # "flags" | "bisect"
    culprit_flags: List[str] = field(default_factory=list)
    culprit_pass: Optional[str] = None
    tested: int = 0

    @property
    def culprit(self) -> Optional[str]:
        if self.culprit_pass is not None:
            return self.culprit_pass
        if self.culprit_flags:
            return self.culprit_flags[0]
        return None

    @property
    def failed(self) -> bool:
        return self.culprit is None


def violation_present(compiler: Compiler, program: Program, level: str,
                      debugger: Debugger, violation: Violation,
                      facts: Optional[SourceFacts] = None,
                      disabled: Tuple[str, ...] = (),
                      bisect_limit: Optional[int] = None,
                      session: Optional[FrontendSession] = None) -> bool:
    """Recompile with the given controls and re-check one violation.

    ``session`` — a :class:`FrontendSession` of ``program`` — lets
    repeated calls share one resolve and lowering."""
    if session is None:
        session = FrontendSession(-1, program=program)
    if facts is None:
        facts = session.facts
    compilation = compiler.compile_ir(
        session.ir_module(), level, program_token=session.program_token,
        disabled=disabled, bisect_limit=bisect_limit)
    return _shows(compilation, debugger, facts, violation)


def _shows(compilation: Compilation, debugger: Debugger,
           facts: SourceFacts, violation: Violation) -> bool:
    """Whether tracing the build exhibits ``violation``."""
    trace = debugger.trace(compilation.exe)
    key = violation.key()
    return any(v.key() == key for v in check_all(facts, trace))


def prioritize_flags(flags: List[str]) -> List[str]:
    """Order candidate culprit flags, enabling passes last."""
    return sorted(flags, key=lambda f: (f in LOW_PRIORITY_FLAGS, f))


def find_culprit_flags(compiler: Compiler, program: Program, level: str,
                       debugger: Debugger, violation: Violation,
                       facts: Optional[SourceFacts] = None
                       ) -> TriageResult:
    """The gcc-style method: try every boolean flag separately.

    Everything a ``-fno-X`` compile runs before X's first pass is the
    default compile, so the default pipeline runs once, checkpointed
    before each flag's first pass, and each flag's compile resumes from
    its checkpoint (:meth:`~repro.compilers.compiler.Compiler
    .checkpoints`)."""
    session = FrontendSession(-1, program=program)
    if facts is None:
        facts = session.facts
    result = TriageResult(violation=violation, method="flags")
    flags = compiler.flags(level)
    checkpoints = compiler.checkpoints(
        session.ir_module(), level, program_token=session.program_token,
        before=flags)
    for flag in flags:
        result.tested += 1
        compilation = compiler.compile_ir(
            level=level, program_token=session.program_token,
            disabled=(flag,), resume=checkpoints[flag])
        if not _shows(compilation, debugger, facts, violation):
            result.culprit_flags.append(flag)
    result.culprit_flags = prioritize_flags(result.culprit_flags)
    return result


def find_culprit_bisect(compiler: Compiler, program: Program, level: str,
                        debugger: Debugger, violation: Violation,
                        facts: Optional[SourceFacts] = None
                        ) -> TriageResult:
    """The clang-style method: smallest pass prefix showing the loss."""
    session = FrontendSession(-1, program=program)
    if facts is None:
        facts = session.facts
    result = TriageResult(violation=violation, method="bisect")
    passes = compiler.pass_sequence(level)

    def present(limit: int) -> bool:
        result.tested += 1
        return violation_present(compiler, program, level, debugger,
                                 violation, facts, bisect_limit=limit,
                                 session=session)

    # The violation must be present with the full pipeline and absent
    # with none of it, otherwise bisection has nothing to localize.
    if not present(len(passes)) or present(0):
        return result

    lo, hi = 0, len(passes)  # absent at lo, present at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if present(mid):
            hi = mid
        else:
            lo = mid
    result.culprit_pass = passes[hi - 1]
    return result


def triage(compiler: Compiler, program: Program, level: str,
           debugger: Debugger, violation: Violation,
           facts: Optional[SourceFacts] = None) -> TriageResult:
    """Triage with the family's native method (Section 4.3); its
    probes share one frontend session."""
    if compiler.family == "clang":
        return find_culprit_bisect(compiler, program, level, debugger,
                                   violation, facts)
    return find_culprit_flags(compiler, program, level, debugger,
                              violation, facts)
