"""Parallel candidate speculation for the fast reduction engine.

Reduction is inherently sequential — each acceptance changes the
program the next candidate is generated from — but candidate *oracles*
are pure functions of the candidate text, so the engine can speculate:
evaluate the next K candidates concurrently and accept the **first
success in generation order**.  Because verdicts are deterministic,
the accepted-edit sequence (and therefore the reduced program) is
bit-identical to the serial engine's; speculation only wastes the
evaluations ordered after an acceptance.

Workers follow the sharded-campaign playbook
(:mod:`repro.pipeline.parallel`): they receive picklable
:class:`~repro.compilers.compiler.CompilerSpec` /
:class:`~repro.debugger.specs.DebuggerSpec` values plus the candidate's
printed source, rebuild the toolchain once per process via
:func:`~repro.pipeline.matrix.build_cached`, and keep a per-process
:class:`~repro.reduce.oracle.ReductionOracle` so the source/fingerprint
memos warm up worker-side too.  The parent keeps its own source-level
memo: a candidate text it has already seen is never re-dispatched.
"""

from __future__ import annotations

import copy
import multiprocessing
import pickle
from dataclasses import fields
from typing import Dict, List, Optional, Tuple

from ..compilers.compiler import CompilerSpec
from ..conjectures.base import Violation
from ..debugger.specs import DebuggerSpec, spec_for
from ..lang import ast_nodes as A
from ..lang.printer import print_program
from .candidates import Edit, fast_schedule
from .engine import Reducer, ReductionResult, program_size
from .oracle import OracleStats, ReductionOracle

#: One speculation task: everything a worker needs to evaluate one
#: candidate oracle (all picklable).  The parent calibrates the fuel
#: bound once and ships it, so worker verdicts are exactly the serial
#: oracle's regardless of which worker a candidate lands on.  The
#: candidate travels as a pickled AST, *not* as source text: defect
#: selectors hash node line stamps the printer deliberately leaves
#: alone on ``Block`` nodes, so a reparsed candidate could fire
#: different injected defects than the parent's AST and flip verdicts.
OracleTask = Tuple[CompilerSpec, DebuggerSpec, str, Violation,
                   Optional[str], int, bytes, str]

#: Per-process oracle memo, keyed by the reduction's identity; workers
#: evaluate many candidates of the same reduction, so the oracle (and
#: its memos) persists across tasks like the campaign workers'
#: toolchain cache.
_WORKER_ORACLES: Dict[Tuple, ReductionOracle] = {}


_STAT_FIELDS = tuple(field.name for field in fields(OracleStats))


def evaluate_oracle_task(task: OracleTask) -> Tuple[bool, Dict[str, int]]:
    """Worker entry point: unpickle one candidate and run the oracle.

    Returns the verdict plus the oracle-stats delta this evaluation
    caused, so the parent can aggregate the per-stage accounting that
    would otherwise stay stranded in the worker processes.
    """
    from ..pipeline.matrix import build_cached
    (compiler_spec, debugger_spec, level, violation, culprit, fuel,
     blob, source) = task
    key = (compiler_spec, debugger_spec, level, violation, culprit, fuel)
    oracle = _WORKER_ORACLES.get(key)
    if oracle is None:
        oracle = _WORKER_ORACLES[key] = ReductionOracle(
            build_cached(compiler_spec), level,
            build_cached(debugger_spec), violation, culprit_flag=culprit,
            fuel_bound=fuel)
    before = {name: getattr(oracle.stats, name) for name in _STAT_FIELDS}
    program = pickle.loads(blob)
    verdict = oracle.check(program, source=source)
    delta = {name: getattr(oracle.stats, name) - before[name]
             for name in _STAT_FIELDS}
    return verdict, delta


def _next_batch(schedule, current, memo: Dict[str, bool], limit: int,
                steps_before: int, max_steps: int
                ) -> Tuple[List[Tuple[Edit, str, Optional[bytes]]], bool]:
    """Materialize up to ``limit`` candidates as (edit, source, blob).

    Each edit is applied, printed, pickled, and undone immediately, so
    the program is back in its pass-start state when the batch ships;
    candidates whose source the parent memo already knows skip the
    pickling (``blob=None``) — they will never be dispatched.  Returns
    the batch plus whether the serial step budget ran out while drawing
    it (the candidate that hits the budget is counted but not
    evaluated, matching the serial loop).
    """
    batch: List[Tuple[Edit, str, Optional[bytes]]] = []
    for edit in schedule:
        if steps_before + len(batch) + 1 >= max_steps:
            return batch, True
        edit.apply()
        source = print_program(current)
        blob = pickle.dumps(current) if source not in memo else None
        edit.undo()
        batch.append((edit, source, blob))
        if len(batch) >= limit:
            break
    return batch, False


def reduce_parallel(reducer: Reducer, program: A.Program,
                    workers: Optional[int] = None,
                    speculation: Optional[int] = None,
                    start_method: str = "spawn") -> ReductionResult:
    """Speculative parallel run of ``reducer`` over ``program``.

    ``workers`` defaults to the CPU count; ``speculation`` (the batch
    width K) defaults to twice that.  ``workers <= 1`` falls back to
    the serial engine — same result, no pool.  The compiler and
    debugger must be spec-representable (catalog-configured), as in the
    sharded campaign drivers.

    The result's ``stats`` aggregate the oracle accounting of *all*
    speculative evaluations (workers report per-task deltas), plus the
    parent-memo answers — so ``stats.queries`` can exceed the
    serial-equivalent ``steps_tried`` by the wasted speculation.
    """
    if workers is None:
        from ..pipeline.parallel import default_workers
        workers = default_workers()
    if workers <= 1:
        return reducer.reduce(program)
    compiler_spec = reducer.compiler.spec()
    debugger_spec = spec_for(reducer.debugger)
    speculation = speculation or 2 * workers
    max_steps = reducer.max_steps

    original_size = program_size(program)
    current = copy.deepcopy(program)
    print_program(current)
    fuel = reducer.oracle.calibrate(current)
    result = ReductionResult(program=current,
                             original_size=original_size,
                             reduced_size=original_size)
    stats = OracleStats()
    memo: Dict[str, bool] = {}

    def task_for(source: str, blob: bytes) -> OracleTask:
        return (compiler_spec, debugger_spec, reducer.level,
                reducer.violation, reducer.culprit_flag, fuel, blob,
                source)

    context = multiprocessing.get_context(start_method)
    with context.Pool(processes=workers) as pool:
        progress = True
        while progress and result.steps_tried < max_steps:
            progress = False
            schedule = fast_schedule(current)
            while True:
                batch, out_of_steps = _next_batch(
                    schedule, current, memo, speculation,
                    result.steps_tried, max_steps)
                if not batch:
                    if out_of_steps:
                        result.steps_tried += 1  # counted, not evaluated
                    break
                # Ship only candidates the parent has not seen; known
                # verdicts come from the memo at zero cost.  Worker
                # evaluations report their oracle-stats deltas, which
                # accumulate here — stats therefore account for *all*
                # speculative work, so ``queries`` can exceed the
                # serial-equivalent ``steps_tried``.
                unknown = [(source, blob) for _e, source, blob in batch
                           if source not in memo]
                if unknown:
                    results = pool.map(
                        evaluate_oracle_task,
                        [task_for(source, blob)
                         for source, blob in unknown],
                        chunksize=1)
                    for (source, _blob), (verdict, delta) in \
                            zip(unknown, results):
                        memo[source] = verdict
                        for name, value in delta.items():
                            setattr(stats, name,
                                    getattr(stats, name) + value)
                accepted_at = None
                for position, (edit, source, blob) in enumerate(batch):
                    if blob is None:  # answered from the parent memo
                        stats.queries += 1
                        stats.source_memo_hits += 1
                    if memo[source]:
                        accepted_at = position
                        break
                # The serial engine would have evaluated exactly the
                # candidates up to the acceptance (or the whole batch).
                consumed = (accepted_at + 1 if accepted_at is not None
                            else len(batch))
                result.steps_tried += consumed
                if accepted_at is not None:
                    edit, _source, _blob = batch[accepted_at]
                    edit.apply()
                    result.steps_accepted += 1
                    result.accepted.append(edit.describe())
                    progress = True
                    break
                if out_of_steps:
                    result.steps_tried += 1  # counted, not evaluated
                    break

    result.source = print_program(current)
    result.program = current
    result.reduced_size = program_size(current)
    result.stats = stats
    return result
