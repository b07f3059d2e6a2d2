"""Codegen + link: lower an IR module to the target ISA and materialize
debug information.

:func:`link` is the last toolchain stage the compiler driver runs.  It

* lays out every function as one linear run of machine instructions and
  resolves intra-function branch targets;
* assigns frame offsets to stack slots (in the same order the reference
  interpreter does, so both backends agree on symbolic object names) and
  absolute addresses to globals (via
  :func:`~repro.ir.interp.assign_global_addresses`);
* emits one line-table row per machine instruction that carries a source
  line — address-monotone by construction;
* converts the debug intrinsics flowing in the instruction stream into
  DWARF-analogue data: ``DbgDeclare`` opens a frame-slot location for the
  rest of the function, ``DbgValue`` closes the variable's previous
  location range and opens a new one (register, constant, address, or
  salvaged expression), ``DbgValue(None)`` is a kill;
* builds the compile-unit DIE tree: a ``subprogram`` per function,
  ``inlined_subroutine`` DIEs (with ``ranges`` and abstract origins) for
  every :class:`~repro.ir.instructions.InlineScope` the optimizer left in
  the stream, and ``variable``/``formal_parameter`` DIEs carrying the
  location lists.

Producer-side defect hook points (see :mod:`repro.bugs.catalog`):

* ``codegen.drop_die`` — the variable DIE is not emitted at all
  (**Missing DIE**, clang 49546/49580/51780/55115);
* ``codegen.keep_empty_entries`` — the location list is emitted without
  normalization, keeping empty ``lo == hi`` entries (**Incorrect DIE**
  structure; triggers gdb bug 28987 in the consumer);
* ``codegen.concrete_lexical_block`` — an inlined variable is wrapped in
  a synthetic lexical block absent from the abstract origin (triggers gdb
  bug 29060);
* ``codegen.abstract_only_location`` — the location list is attached to
  the abstract origin instead of the concrete inlined DIE (triggers lldb
  bug 50076).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.symbols import Symbol
from ..bugs.defects import NullHooks
from ..debuginfo.die import (
    DIE, DebugInfoUnit, TAG_FORMAL_PARAMETER, TAG_INLINED_SUBROUTINE,
    TAG_LEXICAL_BLOCK, TAG_SUBPROGRAM, TAG_VARIABLE,
)
from ..debuginfo.linetable import LineTable
from ..debuginfo.location import (
    AddrLoc, ConstLoc, ExprLoc, FrameAddrVal, FrameLoc, GlobalAddrVal, Loc,
    LocationList, RegLoc,
)
from ..ir.instructions import (
    BinOp, Branch, Call, DbgDeclare, DbgValue, InlineScope, Instr, Jump,
    Load, Move, Ret, Store, UnOp,
)
from ..ir.interp import assign_global_addresses
from ..ir.module import Function, Module
from ..ir.ops import wrap
from ..ir.values import AffineExpr, Const, GlobalRef, SlotRef, VReg
from .isa import (
    Executable, FrameSlotInfo, FuncInfo, GlobalLayout, MBin, MBranch, MCall,
    MFrameAddr, MGlobalAddr, MImm, MInstr, MJump, MLoad, MMove, MReg, MRet,
    MStore, MUn,
)


class LinkError(Exception):
    """Raised when a module cannot be linked into an executable."""


def _ranges_from_addrs(addrs: Set[int]) -> List[Tuple[int, int]]:
    """Collapse an address set into sorted half-open [lo, hi) runs."""
    out: List[Tuple[int, int]] = []
    for addr in sorted(addrs):
        if out and out[-1][1] == addr:
            out[-1] = (out[-1][0], addr + 1)
        else:
            out.append((addr, addr + 1))
    return out


class _FunctionEmitter:
    """Emits one function's code, line rows, and debug events."""

    def __init__(self, fn: Function, code: List[MInstr],
                 line_table: LineTable, global_addr: Dict[str, int]):
        self.fn = fn
        self.code = code
        self.line_table = line_table
        self.global_addr = global_addr
        self.reg_map: Dict[VReg, int] = {}
        self.slot_offsets: Dict[int, int] = {}
        self.block_addrs: Dict[int, int] = {}
        #: (machine instr, attr name, IR block) branch fixups
        self.fixups: List[Tuple[MInstr, str, object]] = []
        #: symbol -> ordered (finalized entries, open (lo, Loc) or None)
        self.loc_events: Dict[Symbol, List] = {}
        self.open_loc: Dict[Symbol, Optional[Tuple[int, Loc]]] = {}
        self.symbol_order: List[Symbol] = []
        #: scope_id -> addresses covered (an instruction covers its whole
        #: inline-scope chain)
        self.scope_addrs: Dict[int, Set[int]] = {}
        self.scopes: Dict[int, InlineScope] = {}
        self.pending_dbg: List[Instr] = []
        self.low_pc = 0
        self.high_pc = 0
        self.decl_line: Optional[int] = None

    # -- mapping helpers ----------------------------------------------------

    def reg(self, vreg: VReg) -> int:
        phys = self.reg_map.get(vreg)
        if phys is None:
            phys = len(self.reg_map)
            self.reg_map[vreg] = phys
        return phys

    def operand(self, op):
        if isinstance(op, Const):
            return MImm(wrap(op.value))
        if isinstance(op, VReg):
            return MReg(self.reg(op))
        if isinstance(op, SlotRef):
            return MFrameAddr(self.slot_offsets[op.slot_id] + op.offset)
        if isinstance(op, GlobalRef):
            return MGlobalAddr(self.global_addr[op.name] + op.offset,
                               op.name)
        raise LinkError(f"cannot lower operand {op!r}")

    def dbg_loc(self, value) -> Optional[Loc]:
        """The location description a DbgValue operand denotes."""
        if isinstance(value, VReg):
            return RegLoc(self.reg(value))
        if isinstance(value, Const):
            return ConstLoc(wrap(value.value))
        if isinstance(value, SlotRef):
            return FrameAddrVal(
                self.slot_offsets[value.slot_id] + value.offset)
        if isinstance(value, GlobalRef):
            return GlobalAddrVal(
                self.global_addr[value.name] + value.offset)
        if isinstance(value, AffineExpr):
            return ExprLoc(reg=self.reg(value.vreg), mul=value.mul,
                           add=value.add, div=value.div)
        return None

    # -- debug event stream --------------------------------------------------

    def _note_symbol(self, sym: Symbol) -> None:
        if sym not in self.open_loc:
            self.open_loc[sym] = None
            self.loc_events[sym] = []
            self.symbol_order.append(sym)

    def _close(self, sym: Symbol, addr: int) -> None:
        open_entry = self.open_loc.get(sym)
        if open_entry is not None:
            lo, loc = open_entry
            self.loc_events[sym].append((lo, addr, loc))
            self.open_loc[sym] = None

    def _flush_dbg(self, addr: int) -> None:
        """Anchor pending debug intrinsics at machine address ``addr``."""
        for instr in self.pending_dbg:
            sym = instr.symbol
            self._note_symbol(sym)
            self._close(sym, addr)
            if isinstance(instr, DbgDeclare):
                offset = self.slot_offsets.get(instr.slot_id)
                if offset is not None:
                    self.open_loc[sym] = (addr, FrameLoc(offset))
            else:  # DbgValue
                loc = self.dbg_loc(instr.value)
                if loc is not None:
                    self.open_loc[sym] = (addr, loc)
        self.pending_dbg = []

    # -- emission ---------------------------------------------------------------

    def emit(self) -> FuncInfo:
        fn = self.fn
        offset = 0
        slots: List[FrameSlotInfo] = []
        for slot in fn.slots.values():
            self.slot_offsets[slot.slot_id] = offset
            slots.append(FrameSlotInfo(
                offset=offset, size=slot.size,
                obj_name=f"{fn.name}.{slot.name}"))
            offset += slot.size

        param_regs = [self.reg(vreg) for _sym, vreg in fn.params]
        self.low_pc = len(self.code)

        for block in fn.blocks:
            self.block_addrs[id(block)] = len(self.code)
            for instr in block.instrs:
                if instr.is_dbg():
                    self.pending_dbg.append(instr)
                    continue
                addr = len(self.code)
                self._flush_dbg(addr)
                machine = self._lower(instr)
                machine.line = instr.line
                self.code.append(machine)
                if instr.line is not None:
                    self.line_table.add(addr, instr.line)
                    if self.decl_line is None or \
                            instr.line < self.decl_line:
                        self.decl_line = instr.line
                scope = instr.scope
                while scope is not None:
                    self.scopes[scope.scope_id] = scope
                    self.scope_addrs.setdefault(
                        scope.scope_id, set()).add(addr)
                    scope = scope.parent

        self.high_pc = len(self.code)
        self._flush_dbg(self.high_pc)
        for sym in list(self.open_loc):
            self._close(sym, self.high_pc)

        for machine, attr, block in self.fixups:
            setattr(machine, attr, self.block_addrs[id(block)])

        return FuncInfo(
            name=fn.name, entry=self.low_pc, low_pc=self.low_pc,
            high_pc=self.high_pc, frame_size=offset,
            param_regs=param_regs, returns_value=fn.return_value,
            slots=slots)

    def _lower(self, instr: Instr) -> MInstr:
        if isinstance(instr, Move):
            return MMove(dst=self.reg(instr.dst),
                         src=self.operand(instr.src))
        if isinstance(instr, BinOp):
            return MBin(dst=self.reg(instr.dst), op=instr.op,
                        a=self.operand(instr.a), b=self.operand(instr.b))
        if isinstance(instr, UnOp):
            return MUn(dst=self.reg(instr.dst), op=instr.op,
                       a=self.operand(instr.a))
        if isinstance(instr, Load):
            return MLoad(dst=self.reg(instr.dst),
                         addr=self.operand(instr.addr),
                         volatile=instr.volatile)
        if isinstance(instr, Store):
            return MStore(addr=self.operand(instr.addr),
                          src=self.operand(instr.value),
                          volatile=instr.volatile)
        if isinstance(instr, Call):
            dst = self.reg(instr.dst) if instr.dst is not None else None
            return MCall(dst=dst, callee=instr.callee,
                         args=[self.operand(a) for a in instr.args],
                         external=instr.external)
        if isinstance(instr, Jump):
            machine = MJump()
            self.fixups.append((machine, "target", instr.target))
            return machine
        if isinstance(instr, Branch):
            machine = MBranch(cond=self.operand(instr.cond))
            self.fixups.append((machine, "if_true", instr.if_true))
            self.fixups.append((machine, "if_false", instr.if_false))
            return machine
        if isinstance(instr, Ret):
            src = self.operand(instr.value) \
                if instr.value is not None else None
            return MRet(src=src)
        raise LinkError(f"cannot lower {instr!r}")


class _DebugBuilder:
    """Builds one function's DIE subtree from the emitter's events."""

    def __init__(self, unit: DebugInfoUnit, emitter: _FunctionEmitter,
                 hooks):
        self.unit = unit
        self.emitter = emitter
        self.hooks = hooks
        self.fn = emitter.fn
        self.scope_dies: Dict[int, DIE] = {}
        self.subprogram: Optional[DIE] = None

    def build(self) -> DIE:
        em = self.emitter
        self.subprogram = DIE(TAG_SUBPROGRAM, {
            "name": self.fn.name,
            "low_pc": em.low_pc,
            "high_pc": em.high_pc,
            "decl_line": em.decl_line or 0,
            "frame_size": sum(s.size for s in em.fn.slots.values()),
        })
        self.unit.add_subprogram(self.subprogram)

        # Scope DIEs first so variables can attach underneath.
        for scope_id in sorted(em.scopes):
            self._scope_die(em.scopes[scope_id])

        symbols = list(self.fn.source_symbols)
        for sym in em.symbol_order:
            if sym not in symbols:
                symbols.append(sym)
        for sym in symbols:
            self._variable_die(sym)
        return self.subprogram

    # -- scopes ----------------------------------------------------------------

    def _abstract_subprogram(self, name: str) -> DIE:
        die = self.unit.abstract_subprograms.get(name)
        if die is None:
            die = DIE(TAG_SUBPROGRAM, {"name": name, "abstract": True})
            self.unit.abstract_subprograms[name] = die
            self.unit.root.add_child(die)
        return die

    def _abstract_variable(self, callee: str, sym: Symbol) -> DIE:
        origin = self._abstract_subprogram(callee)
        for child in origin.children:
            if child.is_variable() and child.name == sym.name:
                return child
        tag = TAG_FORMAL_PARAMETER if sym.kind == "param" else TAG_VARIABLE
        return origin.add_child(DIE(tag, {"name": sym.name, "abstract": True}))

    def _scope_die(self, scope: InlineScope) -> DIE:
        cached = self.scope_dies.get(scope.scope_id)
        if cached is not None:
            return cached
        parent = self.subprogram if scope.parent is None \
            else self._scope_die(scope.parent)
        addrs = self.emitter.scope_addrs.get(scope.scope_id, set())
        die = DIE(TAG_INLINED_SUBROUTINE, {
            "name": scope.callee,
            "call_line": scope.call_line,
            "ranges": _ranges_from_addrs(addrs),
            "abstract_origin": self._abstract_subprogram(scope.callee),
        })
        parent.add_child(die)
        self.scope_dies[scope.scope_id] = die
        return die

    # -- variables --------------------------------------------------------------

    def _location_list(self, sym: Symbol) -> Optional[LocationList]:
        events = self.emitter.loc_events.get(sym)
        if not events:
            return None
        raw = LocationList()
        for lo, hi, loc in events:
            raw.add(lo, hi, loc)
        normalized = raw.normalized()
        if not len(normalized):
            return None
        if self.hooks.fires("codegen.keep_empty_entries",
                            function=self.fn.name, symbol=sym.name):
            # Defective emission: a leftover empty (lo == hi) entry is
            # kept in the middle of the list. The data still describes
            # every range (lldb copes); a consumer that stops scanning at
            # the empty entry (gdb bug 28987) loses the entries after it.
            entries = list(normalized.entries)
            split = max(1, len(entries) // 2)
            anchor = entries[split - 1]
            entries.insert(split,
                           type(anchor)(anchor.hi, anchor.hi, anchor.loc))
            return LocationList(entries)
        return normalized

    def _variable_die(self, sym: Symbol) -> None:
        fn = self.fn
        if self.hooks.fires("codegen.drop_die", function=fn.name,
                            symbol=sym.name):
            return  # Missing DIE
        scope = fn.symbol_scopes.get(sym)
        parent = self.subprogram if scope is None \
            else self._scope_die(scope)
        tag = TAG_FORMAL_PARAMETER if sym.kind == "param" else TAG_VARIABLE
        attrs: Dict[str, object] = {
            "name": sym.name,
            "decl_line": sym.decl.line if sym.decl is not None
            else sym.scope_start,
            "scope_start": sym.scope_start,
            "scope_end": sym.scope_end,
        }
        die = DIE(tag, attrs)
        loclist = self._location_list(sym)
        if scope is not None:
            origin_var = self._abstract_variable(scope.callee, sym)
            attrs["abstract_origin"] = origin_var
            if loclist is not None and self.hooks.fires(
                    "codegen.abstract_only_location",
                    function=fn.name, symbol=sym.name):
                # Defective emission: the concrete DIE stays bare and
                # only the abstract origin carries the location.
                origin_var.attrs["location"] = loclist
            elif loclist is not None:
                attrs["location"] = loclist
            if self.hooks.fires("codegen.concrete_lexical_block",
                                function=fn.name, symbol=sym.name):
                block = DIE(TAG_LEXICAL_BLOCK, {"synthetic": True})
                parent.add_child(block)
                block.add_child(die)
                return
        elif loclist is not None:
            attrs["location"] = loclist
        parent.add_child(die)


def link(module: Module, hooks=None) -> Executable:
    """Lower ``module`` to the ISA and produce a linked executable.

    ``hooks`` is the compilation's :class:`~repro.bugs.defects.DefectHooks`
    (or ``None`` for a defect-free link, e.g. at ``-O0``): every debug
    emission decision with a cataloged failure mode is routed through it.
    """
    if hooks is None:
        hooks = NullHooks()
    if "main" not in module.functions:
        raise LinkError("module has no main function")

    global_addr = assign_global_addresses(module)
    unit = DebugInfoUnit(module.name)
    line_table = LineTable()
    code: List[MInstr] = []
    functions: Dict[str, FuncInfo] = {}
    emitters: List[_FunctionEmitter] = []

    for fn in module.functions.values():
        emitter = _FunctionEmitter(fn, code, line_table, global_addr)
        functions[fn.name] = emitter.emit()
        emitters.append(emitter)

    for emitter in emitters:
        _DebugBuilder(unit, emitter, hooks).build()

    # Globals: always-valid absolute locations, visible at every pc.
    code_end = len(code) + 1
    layout: List[GlobalLayout] = []
    for gvar in module.globals.values():
        addr = global_addr[gvar.name]
        layout.append(GlobalLayout(name=gvar.name, addr=addr,
                                   size=gvar.size,
                                   words=gvar.initial_words()))
        loclist = LocationList()
        loclist.add(0, code_end, AddrLoc(addr))
        decl_line = gvar.symbol.decl.line \
            if gvar.symbol is not None and gvar.symbol.decl is not None \
            else 0
        unit.root.add_child(DIE(TAG_VARIABLE, {
            "name": gvar.name,
            "global": True,
            "decl_line": decl_line,
            "location": loclist,
        }))

    return Executable(
        instrs=code, entry=functions["main"].entry, functions=functions,
        global_layout=layout, global_addr=global_addr,
        line_table=line_table, debug=unit, name=module.name)
