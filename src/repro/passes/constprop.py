"""Conditional constant propagation (gcc ``tree-ccp`` / clang ``ipsccp``).

A forward dataflow analysis computes, per block entry, which virtual
registers hold known constants; the rewrite phase then:

* replaces constant register uses with immediates;
* folds fully-constant operations into ``Move dst, #c``;
* folds branches whose condition is constant (followed by a CFG cleanup —
  the shared helper whose dbg-transport defect models gcc bug 105158);
* **salvages debug values**: a ``dbg.value`` naming a register known to be
  constant is rewritten to the constant itself, making the variable's
  availability immune to later deletion of the register's definition.

Hook points:

* ``ccp.dbg`` — gcc bugs 105108/105161-style: the constant is *not*
  propagated into the debug statement; when later passes delete the dead
  definition the variable's DIE ends up hollow (no ``DW_AT_const_value``,
  no location), even though the emitted code is identical.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..ir.cfg import predecessors, reverse_postorder
from ..ir.instructions import BinOp, Branch, DbgValue, Jump, Move, UnOp
from ..ir.module import Function
from ..ir.ops import UBError, eval_binop, eval_unop
from ..ir.values import AffineExpr, Const, VReg
from .base import Pass, PassContext
from .cfg_cleanup import cleanup_cfg
from .sink import maybe_sink_dbg

_BOTTOM = object()


def _transfer(instr, env: Dict[VReg, object]) -> None:
    """Update a constant environment across one instruction (debug
    intrinsics define nothing)."""
    dst = instr.defs()
    if dst is None:
        return
    value = _BOTTOM
    if isinstance(instr, Move):
        if isinstance(instr.src, Const):
            value = instr.src.value
        elif isinstance(instr.src, VReg):
            value = env.get(instr.src, _BOTTOM)
    elif isinstance(instr, BinOp):
        a = _operand_value(instr.a, env)
        b = _operand_value(instr.b, env)
        if a is not _BOTTOM and b is not _BOTTOM:
            try:
                value = eval_binop(instr.op, a, b)
            except UBError:
                value = _BOTTOM
    elif isinstance(instr, UnOp):
        a = _operand_value(instr.a, env)
        if a is not _BOTTOM:
            value = eval_unop(instr.op, a)
    env[dst] = value


def _operand_value(op, env) -> object:
    if isinstance(op, Const):
        return op.value
    if isinstance(op, VReg):
        return env.get(op, _BOTTOM)
    return _BOTTOM


def _meet(envs) -> Dict[VReg, object]:
    """Join point: keep only registers constant and equal in all preds."""
    envs = [e for e in envs if e is not None]
    if not envs:
        return {}
    out: Dict[VReg, object] = dict(envs[0])
    for env in envs[1:]:
        for vreg, value in out.items():
            if value is not _BOTTOM and env.get(vreg, _BOTTOM) != value:
                out[vreg] = _BOTTOM
        for vreg in env:
            if vreg not in out:
                out[vreg] = _BOTTOM
    return out


class ConstantPropagation(Pass):
    """Forward constant propagation with branch folding."""

    def __init__(self, name: str = "ccp"):
        self.name = name

    def run_on_function(self, fn: Function, ctx: PassContext) -> bool:
        entry_env = self._analyze(fn)
        changed = self._rewrite(fn, entry_env, ctx)
        if changed:
            cleanup_cfg(fn, ctx, caller=self.name)
        maybe_sink_dbg(fn, ctx, point="ccp.sink")
        return changed

    # -- analysis ------------------------------------------------------------

    def _analyze(self, fn: Function):
        # Reverse-postorder sweeps under a fixed round budget.  A block
        # is revisited only when a predecessor's out-env changed since
        # its last visit: otherwise it would recompute the same envs.
        preds = predecessors(fn)
        order = reverse_postorder(fn)
        succs = {id(b): b.successors() for b in order}
        out_env: Dict[int, Optional[Dict]] = {id(b): None for b in fn.blocks}
        in_env: Dict[int, Dict] = {}
        dirty = {id(b) for b in order}

        for _round in range(8):  # small fixed-point budget
            changed = False
            for block in order:
                if id(block) not in dirty:
                    continue
                dirty.discard(id(block))
                block_preds = preds.get(block, [])
                if block is fn.entry:
                    env: Dict[VReg, object] = {}
                elif len(block_preds) == 1:
                    env = dict(out_env[id(block_preds[0])] or {})
                else:
                    env = _meet([out_env[id(p)] for p in block_preds])
                in_env[id(block)] = dict(env)
                for instr in block.instrs:
                    _transfer(instr, env)
                if out_env[id(block)] != env:
                    out_env[id(block)] = env
                    changed = True
                    dirty.update(id(succ) for succ in succs[id(block)])
            if not changed:
                break
        return in_env

    @staticmethod
    def _fold_dbg(value, env):
        """Constant-fold a dbg operand under the environment: plain
        registers and salvaged affine expressions alike."""
        if isinstance(value, VReg):
            known = env.get(value, _BOTTOM)
            if known is not _BOTTOM:
                return Const(known)
            return None
        if isinstance(value, AffineExpr):
            known = env.get(value.vreg, _BOTTOM)
            if known is not _BOTTOM and value.div != 0:
                return Const(value.evaluate(known))
        return None

    # -- rewriting -------------------------------------------------------------

    def _rewrite(self, fn: Function, in_env, ctx: PassContext) -> bool:
        changed = False
        for block in fn.blocks:
            env = dict(in_env.get(id(block), {}))
            new_instrs = []
            for instr in block.instrs:
                if isinstance(instr, DbgValue):
                    folded = self._fold_dbg(instr.value, env)
                    if folded is not None:
                        if ctx.fires("ccp.dbg", function=fn.name,
                                     symbol=instr.symbol.name,
                                     pass_name=self.name):
                            # Defect: the propagation rewrites the
                            # debug statement to an undefined location
                            # instead of binding the constant.
                            instr.value = None
                        else:
                            instr.value = folded
                        changed = True
                    new_instrs.append(instr)
                    continue
                if instr.is_dbg():
                    new_instrs.append(instr)
                    continue

                # Replace constant register uses with immediates.
                mapping = {}
                for use in instr.uses():
                    known = env.get(use, _BOTTOM)
                    if known is not _BOTTOM:
                        mapping[use] = Const(known)
                if mapping:
                    instr.replace_uses(mapping)
                    changed = True

                _transfer(instr, env)

                # Fold fully-constant computations.
                dst = instr.defs()
                if dst is not None and isinstance(instr, (BinOp, UnOp)) \
                        and env.get(dst, _BOTTOM) is not _BOTTOM:
                    new_instrs.append(Move(
                        dst=dst, src=Const(env[dst]), line=instr.line,
                        scope=instr.scope))
                    changed = True
                    continue

                # Fold constant branches.
                if isinstance(instr, Branch):
                    cond = _operand_value(instr.cond, env)
                    if isinstance(instr.cond, Const):
                        cond = instr.cond.value
                    if cond is not _BOTTOM:
                        target = (instr.if_true if cond != 0
                                  else instr.if_false)
                        new_instrs.append(Jump(target=target,
                                               line=instr.line,
                                               scope=instr.scope))
                        changed = True
                        continue
                new_instrs.append(instr)
            block.instrs = new_instrs
        return changed
