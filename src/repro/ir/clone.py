"""Structure-preserving IR module cloning (the compile-once primitive).

The matrix campaign driver lowers each test program to IR **once** and
hands every (family, version, level) cell its own private copy to
mutate, so N compiler cells stop paying N frontend costs.  A clone must
therefore be

* **independent** — optimization passes mutate instructions, blocks,
  slots, and globals in place; none of those may be shared with the
  pristine base module (or with sibling cells);
* **behaviour-identical** to a fresh ``lower_program`` run — passes may
  only observe module *structure*, so the clone shares the immutable
  leaves (``VReg``/``Symbol``/``InlineScope`` identities, frozen operand
  values) and preserves block/instruction order exactly;
* **cheap** — ``copy.deepcopy`` walks the whole object graph including
  symbols and types and costs more than re-lowering; this hand-rolled
  clone copies only the mutable containers.

``module_fingerprint`` is the companion determinism guard: a stable,
counter-normalized digest of a lowered module that is identical across
processes (block names and vreg/symbol ids embed global ``itertools``
counters, so raw ``dump()`` output is *not* stable).  The parallel
matrix driver ships per-seed fingerprints back with each shard so the
merge can prove the workers lowered exactly the programs the serial
driver would have.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List

from .instructions import (
    BinOp, Branch, Call, DbgDeclare, DbgValue, Instr, Jump, Load, Move,
    Ret, Store, UnOp,
)
from .module import BasicBlock, Function, GlobalVar, Module, StackSlot
from .values import AffineExpr, Const, GlobalRef, SlotRef, VReg


def _clone_block_shell(block: BasicBlock) -> BasicBlock:
    """A new, empty block with the same name (no counter churn)."""
    shell = BasicBlock.__new__(BasicBlock)
    shell.name = block.name
    shell.instrs = []
    return shell


def _clone_instr(instr: Instr, blocks: Dict[int, BasicBlock]) -> Instr:
    """Copy one instruction, remapping branch targets into the clone.

    Operands (``VReg``/``Const``/``SlotRef``/``GlobalRef``/``AffineExpr``)
    and ``Symbol``/``InlineScope`` references are shared: passes rewrite
    instruction *fields* (``replace_uses`` reassigns operands) but never
    mutate the operand objects themselves.
    """
    cls = type(instr)
    if cls is Move:
        out = Move(dst=instr.dst, src=instr.src)
    elif cls is BinOp:
        out = BinOp(dst=instr.dst, op=instr.op, a=instr.a, b=instr.b)
    elif cls is UnOp:
        out = UnOp(dst=instr.dst, op=instr.op, a=instr.a)
    elif cls is Load:
        out = Load(dst=instr.dst, addr=instr.addr,
                   volatile=instr.volatile)
    elif cls is Store:
        out = Store(addr=instr.addr, value=instr.value,
                    volatile=instr.volatile)
    elif cls is Call:
        out = Call(dst=instr.dst, callee=instr.callee,
                   args=list(instr.args), external=instr.external)
    elif cls is Jump:
        out = Jump(target=blocks[id(instr.target)])
    elif cls is Branch:
        out = Branch(cond=instr.cond,
                     if_true=blocks[id(instr.if_true)],
                     if_false=blocks[id(instr.if_false)])
    elif cls is Ret:
        out = Ret(value=instr.value)
    elif cls is DbgValue:
        out = DbgValue(symbol=instr.symbol, value=instr.value)
    elif cls is DbgDeclare:
        out = DbgDeclare(symbol=instr.symbol, slot_id=instr.slot_id)
    else:
        raise TypeError(f"cannot clone IR instruction {instr!r}")
    out.line = instr.line
    out.scope = instr.scope
    return out


def _next_slot_id(fn: Function) -> int:
    """The id ``fn``'s next new slot gets, without using it up."""
    next_id = next(fn._slot_counter)
    fn._slot_counter = itertools.count(next_id)
    return next_id


def clone_function(fn: Function) -> Function:
    """An independent copy of ``fn`` (shared symbol/operand leaves)."""
    out = Function.__new__(Function)
    out.name = fn.name
    out.return_value = fn.return_value
    out.is_static = fn.is_static
    out.known_pure = fn.known_pure
    out.params = list(fn.params)
    out.source_symbols = list(fn.source_symbols)
    out.symbol_scopes = dict(fn.symbol_scopes)
    out.slots = {
        slot_id: StackSlot(slot_id=slot.slot_id, name=slot.name,
                           size=slot.size, symbol=slot.symbol,
                           address_taken=slot.address_taken)
        for slot_id, slot in fn.slots.items()
    }
    # Continue the source's slot numbering exactly, so passes that create
    # slots (the inliner) allocate the ids they would have on the source
    # -- a pass may have deleted the highest slot, so the next id is not
    # always one past the highest live one.
    out._slot_counter = itertools.count(_next_slot_id(fn))
    blocks: Dict[int, BasicBlock] = {
        id(block): _clone_block_shell(block) for block in fn.blocks
    }
    out.blocks = [blocks[id(block)] for block in fn.blocks]
    for block in fn.blocks:
        shell = blocks[id(block)]
        shell.instrs = [_clone_instr(i, blocks) for i in block.instrs]
    return out


def clone_module(module: Module) -> Module:
    """An independent copy of ``module`` for one matrix cell to mutate."""
    out = Module(module.name)
    for gvar in module.globals.values():
        out.add_global(GlobalVar(
            name=gvar.name, size=gvar.size, init=list(gvar.init),
            volatile=gvar.volatile, type=gvar.type, symbol=gvar.symbol))
    for fn in module.functions.values():
        out.add_function(clone_function(fn))
    out.externs = dict(module.externs)
    return out


# -- fingerprinting -----------------------------------------------------------


def _operand_token(op, vregs: Dict[VReg, int]) -> str:
    if isinstance(op, VReg):
        return f"v{vregs.setdefault(op, len(vregs))}"
    if isinstance(op, Const):
        return f"#{op.value}"
    if isinstance(op, SlotRef):
        return f"s{op.slot_id}+{op.offset}"
    if isinstance(op, GlobalRef):
        return f"@{op.name}+{op.offset}"
    if isinstance(op, AffineExpr):
        return (f"({_operand_token(op.vreg, vregs)}*{op.mul}"
                f"+{op.add})/{op.div}")
    if op is None:
        return "_"
    return repr(op)


def module_fingerprint(module: Module) -> str:
    """A process-stable digest of a lowered module.

    Blocks and vregs are renamed by first-appearance order and symbols
    by ``(function, name)``, so two lowerings of the same program in
    different processes — with different global counter states — yield
    the same fingerprint, while any structural divergence changes it.
    """
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")

    for name in module.globals:
        gvar = module.globals[name]
        feed(f"g {gvar.name} x{gvar.size} "
             f"{'v' if gvar.volatile else '-'} {gvar.init}")
    for name in sorted(module.externs):
        feed(f"e {name} {module.externs[name]}")
    for fname in module.functions:
        fn = module.functions[fname]
        vregs: Dict[VReg, int] = {}
        blocks = {id(b): i for i, b in enumerate(fn.blocks)}
        feed(f"f {fn.name} ret={fn.return_value} "
             f"static={fn.is_static}")
        for _sym, reg in fn.params:
            _operand_token(reg, vregs)
        feed("p " + " ".join(
            f"{sym.name}:{_operand_token(reg, vregs)}"
            for sym, reg in fn.params))
        for slot_id in sorted(fn.slots):
            slot = fn.slots[slot_id]
            feed(f"s {slot.slot_id} {slot.name} x{slot.size} "
                 f"{'&' if slot.address_taken else '-'}")
        for block in fn.blocks:
            feed(f"b {blocks[id(block)]}")
            for instr in block.instrs:
                parts = [type(instr).__name__, str(instr.line)]
                if isinstance(instr, (Move, BinOp, UnOp, Load)):
                    parts.append(_operand_token(instr.dst, vregs))
                if isinstance(instr, (BinOp, UnOp)):
                    parts.append(instr.op)
                for op in instr._use_operands():
                    parts.append(_operand_token(op, vregs))
                if isinstance(instr, Jump):
                    parts.append(f"b{blocks[id(instr.target)]}")
                elif isinstance(instr, Branch):
                    parts.append(f"b{blocks[id(instr.if_true)]}")
                    parts.append(f"b{blocks[id(instr.if_false)]}")
                elif isinstance(instr, Call):
                    parts.append(instr.callee)
                    parts.append(
                        _operand_token(instr.dst, vregs)
                        if instr.dst is not None else "_")
                elif isinstance(instr, DbgValue):
                    parts.append(f"{instr.symbol.function}"
                                 f".{instr.symbol.name}")
                    parts.append(_operand_token(instr.value, vregs))
                elif isinstance(instr, DbgDeclare):
                    parts.append(f"{instr.symbol.function}"
                                 f".{instr.symbol.name}")
                    parts.append(f"s{instr.slot_id}")
                feed(" ".join(parts))
    return digest.hexdigest()
