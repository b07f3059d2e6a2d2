"""Backward liveness analysis for virtual registers.

Debug intrinsic operands are, as in real compilers, *not* uses: a
``dbg.value`` must never keep a register alive (that would change code
generation based on debug info, a cardinal sin — ``-g`` must not affect
code). The debug-location machinery instead deals with the consequences:
when the register dies, the location range ends.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .cfg import predecessors
from .instructions import Instr
from .module import BasicBlock, Function
from .values import VReg


class LivenessInfo:
    """Result of liveness analysis on one function."""

    def __init__(self, live_in: Dict[BasicBlock, Set[VReg]],
                 live_out: Dict[BasicBlock, Set[VReg]]):
        self.live_in = live_in
        self.live_out = live_out

    def live_after(self, block: BasicBlock, index: int) -> Set[VReg]:
        """Registers live immediately after ``block.instrs[index]``."""
        live = set(self.live_out.get(block, set()))
        for instr in reversed(block.instrs[index + 1:]):
            if instr.is_dbg():
                continue
            d = instr.defs()
            if d is not None:
                live.discard(d)
            live.update(instr.uses())
        return live


def _block_use_def(block: BasicBlock) -> Tuple[Set[VReg], Set[VReg]]:
    uses: Set[VReg] = set()
    defs: Set[VReg] = set()
    for instr in block.instrs:
        if instr.is_dbg():
            continue
        for u in instr.uses():
            if u not in defs:
                uses.add(u)
        d = instr.defs()
        if d is not None:
            defs.add(d)
    return uses, defs


def liveness(fn: Function) -> LivenessInfo:
    """Compute per-block live-in/live-out sets for ``fn``."""
    use: Dict[BasicBlock, Set[VReg]] = {}
    define: Dict[BasicBlock, Set[VReg]] = {}
    for block in fn.blocks:
        use[block], define[block] = _block_use_def(block)

    live_in: Dict[BasicBlock, Set[VReg]] = {b: set() for b in fn.blocks}
    live_out: Dict[BasicBlock, Set[VReg]] = {b: set() for b in fn.blocks}
    succs = {b: b.successors() for b in fn.blocks}

    changed = True
    while changed:
        changed = False
        for block in reversed(fn.blocks):
            out: Set[VReg] = set()
            for succ in succs[block]:
                out |= live_in.get(succ, set())
            new_in = use[block] | (out - define[block])
            if out != live_out[block] or new_in != live_in[block]:
                live_out[block] = out
                live_in[block] = new_in
                changed = True
    return LivenessInfo(live_in, live_out)


def dead_definitions(fn: Function) -> List[Tuple[BasicBlock, Instr]]:
    """Definitions whose value is never used (ignoring dbg uses) and whose
    instruction has no side effects — DCE candidates."""
    info = liveness(fn)
    dead: List[Tuple[BasicBlock, Instr]] = []
    for block in fn.blocks:
        live = set(info.live_out.get(block, set()))
        for instr in reversed(block.instrs):
            if instr.is_dbg():
                continue
            d = instr.defs()
            if d is not None and d not in live and \
                    not instr.has_side_effects():
                dead.append((block, instr))
            if d is not None:
                live.discard(d)
            live.update(instr.uses())
    return dead
