"""Dead code elimination (gcc ``tree-dce`` / LLVM ``ADCE``-lite).

Iteratively removes instructions whose results are never used (debug uses
deliberately do not count — ``-g`` must not change code) and whose
execution has no side effects. Calls to functions proven pure by the IPA
pass are also removable when their result is dead.

Debug handling: every removed definition goes through the shared salvage
machinery (:mod:`repro.passes.salvage`), which rewrites dangling
``dbg.value`` operands into constants or affine expressions over surviving
registers, or kills them honestly.  The pass builds one
:class:`~repro.passes.salvage.SalvageIndex` per function before its first
deletion and reports every deletion to it, so salvage never rescans the
function.

Hook points:

* ``dce.salvage`` — the pass deletes definitions without salvaging
  (gcc bug 105176-style: debug information lost while emitted code is
  unchanged, since the deleted instruction was dead anyway);
* ``ipa.salvage_const`` — gcc bug 105108: when a call to a pure function
  that provably returns a constant is deleted, the constant is not
  propagated into the dbg record, leaving a hollow DIE at levels where the
  call is not inlined.
"""

from __future__ import annotations

from ..ir.instructions import Call, DbgValue, Instr
from ..ir.liveness import liveness
from ..ir.module import Function
from ..ir.values import AffineExpr, Const
from .base import Pass, PassContext
from .salvage import SalvageIndex, salvage_dbg_uses


class DeadCodeElimination(Pass):
    """Iterative dead-definition removal with dbg salvage."""

    def __init__(self, name: str = "dce"):
        self.name = name

    def _removable(self, instr: Instr, ctx: PassContext) -> bool:
        if instr.is_dbg() or instr.is_terminator():
            return False
        if isinstance(instr, Call):
            if instr.external:
                return False
            callee = ctx.module.functions.get(instr.callee)
            return callee is not None and callee.known_pure
        return not instr.has_side_effects()

    def run_on_function(self, fn: Function, ctx: PassContext) -> bool:
        changed = False
        salvage_index = None
        for _round in range(10):
            info = liveness(fn)
            removed_any = False
            for block in fn.blocks:
                live = set(info.live_out.get(block, set()))
                # Walk backwards computing per-point liveness; collect
                # removal indices.
                to_remove = []
                for idx in range(len(block.instrs) - 1, -1, -1):
                    instr = block.instrs[idx]
                    if instr.is_dbg():
                        continue
                    dst = instr.defs()
                    dead = (dst is None or dst not in live)
                    if dst is not None and dead and \
                            self._removable(instr, ctx):
                        to_remove.append(idx)
                        # Removed instruction: its uses do not extend
                        # liveness.
                        continue
                    if dst is not None:
                        live.discard(dst)
                    live.update(instr.uses())
                # Remove from the end so indices stay valid, salvaging
                # dbg uses first.
                if to_remove and salvage_index is None:
                    salvage_index = SalvageIndex(fn)
                for idx in sorted(to_remove, reverse=True):
                    instr = block.instrs[idx]
                    self._salvage(fn, block, idx, instr, ctx, salvage_index)
                    del block.instrs[idx]
                    salvage_index.deleted(instr)
                    removed_any = True
            if not removed_any:
                break
            changed = True
        return changed

    def _salvage(self, fn: Function, block, idx: int, instr: Instr,
                 ctx: PassContext, salvage_index: SalvageIndex) -> None:
        if isinstance(instr, Call):
            callee = ctx.module.functions.get(instr.callee)
            const_ret = getattr(callee, "const_return", None) \
                if callee is not None else None
            target = instr.defs()
            if target is None:
                return
            defective = ctx.fires("ipa.salvage_const", function=fn.name,
                                  callee=instr.callee)
            for pos in range(idx + 1, len(block.instrs)):
                follower = block.instrs[pos]
                if not follower.is_dbg():
                    if follower.defs() is target:
                        break
                    continue
                if isinstance(follower, DbgValue) and \
                        (follower.value is target or
                         (isinstance(follower.value, AffineExpr) and
                          follower.value.vreg is target)):
                    if const_ret is not None and not defective:
                        follower.value = Const(const_ret)
                    else:
                        follower.value = None
            return
        salvage_dbg_uses(fn, block, idx, ctx, "dce", salvage_index)
