"""Module / function / basic-block containers for the IR."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.symbols import Symbol
from ..lang.types import Type
from .instructions import Branch, Instr, Jump, VReg


@dataclass
class GlobalVar:
    """A global variable: contiguous words with a flat initializer."""

    name: str
    size: int = 1
    init: List[int] = field(default_factory=list)
    volatile: bool = False
    type: Optional[Type] = None
    symbol: Optional[Symbol] = None

    def initial_words(self) -> List[int]:
        words = list(self.init[: self.size])
        words.extend([0] * (self.size - len(words)))
        return words


@dataclass
class StackSlot:
    """A per-function stack slot (one or more words)."""

    slot_id: int
    name: str
    size: int = 1
    symbol: Optional[Symbol] = None
    #: whether the slot's address escapes (blocks mem2reg promotion)
    address_taken: bool = False


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    _counter = itertools.count(1)

    def __init__(self, name: str = ""):
        stem = name or "bb"
        self.name = f"{stem}.{next(BasicBlock._counter)}"
        self.instrs: List[Instr] = []

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator():
            return self.instrs[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, Branch):
            if term.if_true is term.if_false:
                return [term.if_true]
            return [term.if_true, term.if_false]
        return []

    def non_dbg_instrs(self) -> List[Instr]:
        return [i for i in self.instrs if not i.is_dbg()]

    def append(self, instr: Instr) -> Instr:
        self.instrs.append(instr)
        return instr

    def __repr__(self) -> str:
        return f"<block {self.name} ({len(self.instrs)} instrs)>"

    def dump(self) -> str:
        lines = [f"{self.name}:"]
        for instr in self.instrs:
            loc = f"  ; line {instr.line}" if instr.line else ""
            lines.append(f"    {instr!r}{loc}")
        return "\n".join(lines)


class Function:
    """An IR function: ordered blocks, stack slots, parameter registers."""

    def __init__(self, name: str, return_value: bool = True):
        self.name = name
        self.return_value = return_value
        self.blocks: List[BasicBlock] = []
        self.slots: Dict[int, StackSlot] = {}
        #: parameter symbols paired with their incoming registers
        self.params: List[Tuple[Symbol, VReg]] = []
        self._slot_counter = itertools.count(1)
        self.is_static = False
        #: filled by ipa analyses: function has no observable side effects
        self.known_pure = False
        #: all source-level variables of this function (params + locals),
        #: extended by the inliner with cloned callee symbols
        self.source_symbols: List[Symbol] = []
        #: inline scope each source symbol belongs to (None = top level)
        self.symbol_scopes: Dict[Symbol, object] = {}

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def new_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(name)
        self.blocks.append(block)
        return block

    def new_vreg(self, hint: str = "") -> VReg:
        return VReg(name=hint)

    def new_slot(self, name: str, size: int = 1,
                 symbol: Optional[Symbol] = None) -> StackSlot:
        slot = StackSlot(slot_id=next(self._slot_counter), name=name,
                         size=size, symbol=symbol)
        self.slots[slot.slot_id] = slot
        return slot

    def instructions(self) -> Iterable[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def frame_size(self) -> int:
        return sum(slot.size for slot in self.slots.values())

    def remove_unreferenced_blocks(self) -> List[BasicBlock]:
        """Drop blocks unreachable from entry; returns the removed ones."""
        reachable = set()
        work = [self.entry]
        while work:
            block = work.pop()
            if id(block) in reachable:
                continue
            reachable.add(id(block))
            work.extend(block.successors())
        removed = [b for b in self.blocks if id(b) not in reachable]
        self.blocks = [b for b in self.blocks if id(b) in reachable]
        return removed

    def dump(self) -> str:
        header = f"func {self.name}:"
        slots = "".join(
            f"\n  slot{s.slot_id} {s.name} x{s.size}"
            for s in self.slots.values()
        )
        body = "\n".join(block.dump() for block in self.blocks)
        return f"{header}{slots}\n{body}"

    def __repr__(self) -> str:
        return f"<Function {self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A whole compiled translation unit at the IR level."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: Dict[str, GlobalVar] = {}
        self.functions: Dict[str, Function] = {}
        self.externs: Dict[str, bool] = {}  # name -> returns a value

    def add_global(self, gvar: GlobalVar) -> GlobalVar:
        self.globals[gvar.name] = gvar
        return gvar

    def add_function(self, fn: Function) -> Function:
        self.functions[fn.name] = fn
        return fn

    def dump(self) -> str:
        parts = [
            f"global {g.name} x{g.size}"
            + (" volatile" if g.volatile else "")
            for g in self.globals.values()
        ]
        parts.extend(fn.dump() for fn in self.functions.values())
        return "\n\n".join(parts)
