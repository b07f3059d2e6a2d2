"""Differential tests for culprit triage (Section 4.3).

The gcc-style flag search does not compile each ``-fno-<pass>`` build
from scratch: it runs the default pipeline once, checkpointed before
each flag's first pass, and resumes every flag's compile from its
checkpoint.  The suite pins that against full compiles:

* every resumed compile equals ``compile(program, level,
  disabled=(flag,))`` on the optimized module, the fired records, the
  pipeline report and both debuggers' traces — every flag, every gcc
  level, several seeds;
* :func:`find_culprit_flags`, :func:`find_culprit_bisect` and
  :func:`triage` return the same :class:`TriageResult` as per-flag and
  per-limit full-compile references kept here.
"""

import pytest

from repro.analysis.source_facts import SourceFacts
from repro.compilers import Compiler
from repro.compilers.frontend import FrontendSession
from repro.conjectures.base import check_all
from repro.debugger import GdbLike, LldbLike
from repro.fuzz import generate_validated
from repro.ir.clone import module_fingerprint
from repro.pipeline import run_campaign
from repro.pipeline.reduction import iter_witnesses
from repro.triage import (
    TriageResult, find_culprit_bisect, find_culprit_flags,
    prioritize_flags, triage,
)

RESUME_SEEDS = range(6)
#: Witnesses per family the triage methods are checked on.
WITNESSES = 4


def _fired(compilation):
    return [(record.defect.defect_id, record.point, record.context)
            for record in compilation.hooks.fired]


@pytest.mark.parametrize("seed", RESUME_SEEDS)
def test_resumed_flag_compiles_equal_full_compiles(seed):
    compiler = Compiler("gcc", "trunk")
    session = FrontendSession(seed)
    token = session.program_token
    for level in compiler.levels:
        flags = compiler.flags(level)
        checkpoints = compiler.checkpoints(session.ir_module(), level,
                                           program_token=token,
                                           before=flags)
        assert sorted(checkpoints) == sorted(flags)
        for flag in flags:
            resumed = compiler.compile_ir(level=level, program_token=token,
                                          disabled=(flag,),
                                          resume=checkpoints[flag])
            full = compiler.compile(session.program, level,
                                    disabled=(flag,))
            where = (seed, level, flag)
            assert module_fingerprint(resumed.module) == \
                module_fingerprint(full.module), where
            assert _fired(resumed) == _fired(full), where
            assert resumed.report == full.report, where
            for debugger in (GdbLike(), LldbLike()):
                assert debugger.trace(resumed.exe) == \
                    debugger.trace(full.exe), where


# -- triage methods against full-compile references ----------------------------


def _present(compiler, program, level, debugger, violation, facts,
             **controls):
    trace = debugger.trace(compiler.compile(program, level, **controls).exe)
    return any(v.key() == violation.key() for v in check_all(facts, trace))


def _reference_flags(compiler, program, level, debugger, violation):
    facts = SourceFacts(program)
    result = TriageResult(violation=violation, method="flags")
    for flag in compiler.flags(level):
        result.tested += 1
        if not _present(compiler, program, level, debugger, violation,
                        facts, disabled=(flag,)):
            result.culprit_flags.append(flag)
    result.culprit_flags = prioritize_flags(result.culprit_flags)
    return result


def _reference_bisect(compiler, program, level, debugger, violation):
    facts = SourceFacts(program)
    result = TriageResult(violation=violation, method="bisect")
    passes = compiler.pass_sequence(level)

    def present(limit):
        result.tested += 1
        return _present(compiler, program, level, debugger, violation,
                        facts, bisect_limit=limit)

    if not present(len(passes)) or present(0):
        return result
    lo, hi = 0, len(passes)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if present(mid):
            hi = mid
        else:
            lo = mid
    result.culprit_pass = passes[hi - 1]
    return result


@pytest.fixture(scope="module", params=["gcc", "clang"])
def witnesses(request):
    family = request.param
    compiler = Compiler(family, "trunk")
    debugger = GdbLike() if family == "gcc" else LldbLike()
    campaign = run_campaign(compiler, debugger, pool_size=12)
    # One witness per (seed, level), so the picks spread over levels.
    found, seen = [], set()
    for seed, level, violation in iter_witnesses(campaign):
        if (seed, level) not in seen and len(found) < WITNESSES:
            seen.add((seed, level))
            found.append((seed, level, violation))
    assert len(found) == WITNESSES
    return compiler, debugger, found


def test_flag_search_equals_full_compile_reference(witnesses):
    compiler, debugger, found = witnesses
    for seed, level, violation in found:
        program = generate_validated(seed)
        got = find_culprit_flags(compiler, program, level, debugger,
                                 violation)
        assert got == _reference_flags(compiler, program, level,
                                       debugger, violation), (seed, level)


def test_bisect_search_equals_full_compile_reference(witnesses):
    compiler, debugger, found = witnesses
    for seed, level, violation in found:
        program = generate_validated(seed)
        got = find_culprit_bisect(compiler, program, level, debugger,
                                  violation)
        assert got == _reference_bisect(compiler, program, level,
                                        debugger, violation), (seed, level)


def test_triage_uses_the_native_method(witnesses):
    compiler, debugger, found = witnesses
    reference = _reference_bisect if compiler.family == "clang" \
        else _reference_flags
    seed, level, violation = found[0]
    program = generate_validated(seed)
    got = triage(compiler, program, level, debugger, violation)
    assert got == reference(compiler, program, level, debugger, violation)
    assert not got.failed
