"""The "sunk debug record" defect action.

Several of the paper's Conjecture 3 bugs (gcc 104938/105124/105389, clang
50286) share one manifestation: the variable's location range *starts
well after* the instruction that assigns it — the value is shown as
optimized out for a stretch of its lifetime, only to (counter-intuitively)
become available later, without any reassignment.

The producer-side mechanism is a pass updating debug statements to a
position past the code of the following source lines. The helper below
implements that action for any pass: when the corresponding defect fires
for a (function, variable) pair, the variable's debug records are moved
down past a handful of following real instructions. With no active defect
it is a no-op — correct passes keep debug records anchored.

It is also cheap then: when the hooks say no defect is hosted at the
point (``PassContext.may_fire``) the helper returns before looking at a
single block, and otherwise it rebuilds only the blocks where a record
moved — up to the first record that sinks a block is copied as is.
"""

from __future__ import annotations

from ..ir.instructions import DbgValue
from ..ir.module import Function
from .base import PassContext

#: How many real instructions a sunk record skips.
SINK_DISTANCE = 6


def maybe_sink_dbg(fn: Function, ctx: PassContext, point: str) -> bool:
    """Apply the sink-defect action where the registry says so."""
    if not ctx.may_fire(point):
        return False
    changed = False
    for block in fn.blocks:
        instrs = block.instrs
        for index, instr in enumerate(instrs):
            if _sinks(instr, fn, ctx, point):
                block.instrs = _sink_block(instrs, index, fn, ctx, point)
                changed = True
                break
    return changed


def _sinks(instr, fn: Function, ctx: PassContext, point: str) -> bool:
    return isinstance(instr, DbgValue) and instr.value is not None \
        and ctx.fires(point, function=fn.name, symbol=instr.symbol.name)


def _sink_block(instrs, first: int, fn: Function, ctx: PassContext,
                point: str):
    """The block's instructions with every firing record sunk; the
    record at ``first`` is the first one that fires (it has already
    been asked)."""
    new_instrs = list(instrs[:first])
    pending = [[SINK_DISTANCE, instrs[first]]]  # (remaining_distance, instr)
    for instr in instrs[first + 1:]:
        if _sinks(instr, fn, ctx, point):
            pending.append([SINK_DISTANCE, instr])
            continue
        new_instrs.append(instr)
        if not instr.is_dbg() and not instr.is_terminator():
            for entry in pending:
                entry[0] -= 1
            matured = [e for e in pending if e[0] <= 0]
            pending = [e for e in pending if e[0] > 0]
            for _dist, dbg in matured:
                new_instrs.append(dbg)
    # Records that never matured land just before the terminator.
    if pending:
        insert_at = len(new_instrs)
        if new_instrs and new_instrs[-1].is_terminator():
            insert_at -= 1
        for _dist, dbg in pending:
            new_instrs.insert(insert_at, dbg)
    return new_instrs
