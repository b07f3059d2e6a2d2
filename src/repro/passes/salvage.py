"""Debug-value salvaging (LLVM's ``salvageDebugInfo`` analogue).

When an instruction that defines a register is deleted, any ``dbg.value``
describing a variable in terms of that register becomes dangling. The
*correct* behaviour is to rewrite the dbg operand in terms of surviving
operands — a constant, another register, or an affine expression over a
register (our miniature DWARF expression). When nothing works, the dbg
value must be explicitly killed (set to None): a dangling reference would
either vanish silently or, worse, read a reused register (the paper's
"Incorrect DIE" class).

Every deleting pass funnels through :func:`salvage_dbg_uses`, and the bug
registry can disable the provision per pass via the ``<pass>.salvage``
hook point — reproducing the per-pass "insufficient provisions to salvage"
defects (clang LSR 53855, gcc DCE/DSE cases, ...).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from ..ir.instructions import BinOp, DbgValue, Instr, Move, UnOp
from ..ir.module import BasicBlock, Function
from ..ir.values import AffineExpr, Const, GlobalRef, SlotRef, VReg
from .base import PassContext


def _affine_of(instr: Instr) -> Optional[AffineExpr]:
    """Describe ``instr``'s result as an affine function of one register."""
    if isinstance(instr, Move):
        if isinstance(instr.src, VReg):
            return AffineExpr(instr.src, 1, 0, 1)
        return None
    if isinstance(instr, UnOp) and instr.op == "-" and \
            isinstance(instr.a, VReg):
        return AffineExpr(instr.a, -1, 0, 1)
    if isinstance(instr, BinOp):
        a, b, op = instr.a, instr.b, instr.op
        if op == "+":
            if isinstance(a, VReg) and isinstance(b, Const):
                return AffineExpr(a, 1, b.value, 1)
            if isinstance(b, VReg) and isinstance(a, Const):
                return AffineExpr(b, 1, a.value, 1)
        elif op == "-":
            if isinstance(a, VReg) and isinstance(b, Const):
                return AffineExpr(a, 1, -b.value, 1)
            if isinstance(b, VReg) and isinstance(a, Const):
                return AffineExpr(b, -1, a.value, 1)
        elif op == "*":
            if isinstance(a, VReg) and isinstance(b, Const):
                return AffineExpr(a, b.value, 0, 1)
            if isinstance(b, VReg) and isinstance(a, Const):
                return AffineExpr(b, a.value, 0, 1)
    return None


def _compose(outer: AffineExpr, inner: AffineExpr) -> Optional[AffineExpr]:
    """outer(v) where v = inner(u); only exact (div-free inner) composes."""
    if inner.div != 1:
        return None
    return AffineExpr(inner.vreg, outer.mul * inner.mul,
                      outer.mul * inner.add + outer.add, outer.div)


def _redefined_between(block: BasicBlock, start: int, end: int,
                       vreg: VReg) -> bool:
    for instr in block.instrs[start:end]:
        if not instr.is_dbg() and instr.defs() is vreg:
            return True
    return False


class SalvageIndex:
    """Per-function tables that replace salvage's whole-function scans:
    how many instructions define each register, and which ``DbgValue``s
    refer to it.

    The deleting pass builds one before its first deletion and owns it
    for the rest of its run over the function.  Both sides keep it
    current: :func:`salvage_dbg_uses` notes every dbg value it re-points
    at a register, and the pass calls :meth:`deleted` once it has
    removed an instruction.  An entry whose dbg value was later killed
    or re-pointed without a note is stale; :meth:`dbg_refs` re-checks
    each entry, so stale ones are harmless.
    """

    def __init__(self, fn: Function):
        self.defs: Dict[VReg, int] = defaultdict(int)
        #: register -> dbg values that referred to it; a dict used as a
        #: set, so a dbg value noted twice is still visited once
        self.refs: Dict[VReg, Dict[DbgValue, None]] = defaultdict(dict)
        for block in fn.blocks:
            for instr in block.instrs:
                if isinstance(instr, DbgValue):
                    self.note(instr)
                else:
                    dst = instr.defs()  # None for every debug intrinsic
                    if dst is not None:
                        self.defs[dst] += 1

    def note(self, dbg: DbgValue) -> None:
        vreg = dbg.dbg_vreg()
        if vreg is not None:
            self.refs[vreg][dbg] = None

    def deleted(self, instr: Instr) -> None:
        dst = instr.defs()
        if dst is not None:
            self.defs[dst] -= 1

    def dbg_refs(self, vreg: VReg) -> List[DbgValue]:
        """The dbg values that refer to ``vreg`` now."""
        return [dbg for dbg in self.refs.get(vreg, ())
                if dbg.dbg_vreg() is vreg]


def salvage_dbg_uses(fn: Function, block: BasicBlock, index: int,
                     ctx: PassContext, caller: str,
                     salvage_index: SalvageIndex) -> None:
    """Rewrite or kill dbg values dangling on ``block.instrs[index]``
    (which the caller is about to delete).  ``salvage_index`` still
    counts that instruction among the definitions."""
    dying = block.instrs[index]
    target = dying.defs()
    if target is None:
        return

    defective = ctx.fires(f"{caller}.salvage", function=fn.name,
                          vreg=getattr(target, "name", "") or "")

    replacement = None
    if isinstance(dying, Move) and isinstance(
            dying.src, (Const, SlotRef, GlobalRef)):
        replacement = dying.src
    elif isinstance(dying, BinOp) and isinstance(dying.a, Const) and \
            isinstance(dying.b, Const):
        replacement = None  # folded earlier in practice; kill below
    affine = _affine_of(dying)

    # Scan forward until the next real definition of the target register.
    for pos in range(index + 1, len(block.instrs)):
        instr = block.instrs[pos]
        if not instr.is_dbg():
            if instr.defs() is target:
                break
            continue
        if not isinstance(instr, DbgValue):
            continue
        current = instr.value
        refers = (current is target or
                  (isinstance(current, AffineExpr) and
                   current.vreg is target))
        if not refers:
            continue
        if defective:
            # Defect: the pass lacks salvage provisions; dbg value is
            # dropped on the floor (variable shows as optimized out, or
            # the DIE ends up hollow if this was its only location).
            instr.value = None
            continue
        if replacement is not None:
            instr.value = replacement
            continue
        if affine is not None:
            base = affine.vreg
            if not _redefined_between(block, index + 1, pos, base):
                if isinstance(current, AffineExpr):
                    composed = _compose(current, affine)
                    instr.value = composed  # None kills, as required
                else:
                    instr.value = affine
                salvage_index.note(instr)
                continue
        instr.value = None  # honest kill: value not recoverable

    # The in-block scan cannot see dbg values in *other* blocks (a
    # loop-exit dbg.value referencing a deleted induction variable).
    # Once no definition of the target survives anywhere, every
    # remaining reference dangles: codegen would hand it a register no
    # instruction ever writes — the debugger reads garbage (the
    # "Incorrect DIE" class).  Salvage them the same way, or kill.
    if salvage_index.defs[target] > 1:
        return  # another definition keeps the register live
    base_defs = 0
    if affine is not None:
        base_defs = salvage_index.defs.get(affine.vreg, 0)
    for instr in salvage_index.dbg_refs(target):
        current = instr.value
        if defective:
            instr.value = None
        elif replacement is not None:
            instr.value = replacement
        elif affine is not None and base_defs == 1:
            if isinstance(current, AffineExpr):
                instr.value = _compose(current, affine)
            else:
                instr.value = affine
            salvage_index.note(instr)
        else:
            instr.value = None


def kill_dbg_for_vreg(fn: Function, vreg: VReg) -> None:
    """Explicitly kill every dbg value referencing ``vreg`` (used when a
    register is deleted without any salvage possibility)."""
    for block in fn.blocks:
        for instr in block.instrs:
            if isinstance(instr, DbgValue):
                if instr.value is vreg or (
                        isinstance(instr.value, AffineExpr) and
                        instr.value.vreg is vreg):
                    instr.value = None
