"""Per-pass unit tests: semantic preservation and debug maintenance."""

import pytest

from repro.ir import (
    DbgValue, Load, Move, Store, lower_program, run_module, verify_module,
)
from repro.analysis.symbols import Symbol
from repro.ir.instructions import BinOp, Branch, Call, Jump, Ret
from repro.ir.module import Function, Module
from repro.ir.values import Const, GlobalRef, VReg, AffineExpr
from repro.lang import parse, print_program
from repro.lang.types import INT
from repro.passes import (
    ConstantPropagation, CopyPropagation, DeadCodeElimination,
    DeadStoreElimination, IPAPureConst, InstCombine, Inliner,
    InstructionScheduler, LoopInvariantCodeMotion, LoopRotate,
    LoopStrengthReduce, LoopUnroll, Mem2Reg, PassManager,
    RedundancyElimination, SimplifyCFG, ValueRangePropagation,
)
from repro.passes.base import PassContext


def prepared(source):
    program = parse(source)
    print_program(program)
    return program


def run_pipeline(source, passes):
    program = prepared(source)
    reference = run_module(lower_program(program))
    module = lower_program(program)
    manager = PassManager(passes, verify=True)
    manager.run(module)
    result = run_module(module)
    assert result.key() == reference.key(), "semantics changed"
    return module, result


SIMPLE = """
extern int opaque(int, ...);
int g = 3;
volatile int c;
int main(void) {
    int x = 5, y;
    y = x + g;
    c = y;
    opaque(x, y);
    return y;
}
"""

LOOPY = """
int a[4][4] = {{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 1, 2, 3}, {4, 5, 6, 7}};
volatile int c;
int main(void) {
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            c = a[i][j];
    return 0;
}
"""

CALLS = """
extern int opaque(int, ...);
int g;
int zero(void) { return 0; }
int add(int a, int b) { return a + b; }
int main(void) {
    int r = add(2, 3) + zero();
    g = r;
    opaque(r);
    return r;
}
"""


# -- mem2reg ----------------------------------------------------------------

def test_mem2reg_removes_scalar_slots():
    module, _ = run_pipeline(SIMPLE, [Mem2Reg()])
    fn = module.functions["main"]
    assert not fn.slots, "all scalar slots should be promoted"


def test_mem2reg_emits_dbg_values():
    module, _ = run_pipeline(SIMPLE, [Mem2Reg()])
    fn = module.functions["main"]
    dbg = [i for i in fn.instructions() if isinstance(i, DbgValue)]
    names = {d.symbol.name for d in dbg}
    assert {"x", "y"} <= names


def test_mem2reg_keeps_address_taken_slot():
    module, _ = run_pipeline("""
int main(void) {
    int x = 1;
    int *p = &x;
    *p = 2;
    return x;
}""", [Mem2Reg()])
    fn = module.functions["main"]
    assert any(s.name == "x" for s in fn.slots.values())


def test_mem2reg_keeps_volatile_local():
    module, _ = run_pipeline("""
int main(void) {
    volatile int v = 1;
    v = 2;
    return v;
}""", [Mem2Reg()])
    fn = module.functions["main"]
    assert any(s.name == "v" for s in fn.slots.values())


# -- constant propagation ------------------------------------------------------

def test_constprop_folds_constants():
    module, result = run_pipeline("""
int main(void) {
    int a = 4;
    int b = a + 3;
    return b * 2;
}""", [Mem2Reg(), ConstantPropagation()])
    assert result.exit_code == 14
    fn = module.functions["main"]
    binops = [i for i in fn.instructions() if isinstance(i, BinOp)]
    assert not binops, "all arithmetic should fold"


def test_constprop_rewrites_dbg_to_const():
    module, _ = run_pipeline("""
int g;
int main(void) {
    int a = 4;
    g = a + 1;
    return 0;
}""", [Mem2Reg(), ConstantPropagation()])
    fn = module.functions["main"]
    dbg = [i for i in fn.instructions()
           if isinstance(i, DbgValue) and i.symbol.name == "a"]
    assert any(isinstance(d.value, Const) and d.value.value == 4
               for d in dbg)


def test_constprop_folds_branches():
    module, _ = run_pipeline("""
int g;
int main(void) {
    if (1 < 2)
        g = 1;
    else
        g = 2;
    return g;
}""", [Mem2Reg(), ConstantPropagation()])
    fn = module.functions["main"]
    from repro.ir.instructions import Branch
    assert not any(isinstance(i, Branch) for i in fn.instructions())


def test_constprop_does_not_fold_division_by_zero():
    # Folding must never hide UB: 1/0 with a dead result stays put.
    program = prepared("""
int main(void) {
    int z = 0;
    if (0)
        z = 1 / z;
    return 7;
}""")
    module = lower_program(program)
    PassManager([Mem2Reg(), ConstantPropagation()], verify=True).run(module)
    assert run_module(module).exit_code == 7


def test_constprop_revisits_loop_header_when_back_edge_changes():
    # Round 1 sees i = 0 on the header's only visited edge; the latch's
    # i + 1 reaches the header through the back edge in round 2, which
    # must lower i to unknown there while k stays the constant 3.
    module, result = run_pipeline("""
volatile int c;
int main(void) {
    int i, k = 3;
    for (i = 0; i < 4; i++)
        c = i + k;
    return k;
}""", [Mem2Reg(), ConstantPropagation()])
    assert result.exit_code == 3
    assert [o.kind for o in result.observations].count("vstore") == 4
    fn = module.functions["main"]
    assert any(isinstance(i, Branch) for i in fn.instructions())
    adds = [i for i in fn.instructions()
            if isinstance(i, BinOp) and i.op == "+"]
    assert any(isinstance(a.a, VReg) and a.b == Const(3) for a in adds)


# -- DCE -----------------------------------------------------------------------

def test_dce_removes_dead_code():
    module, _ = run_pipeline("""
int main(void) {
    int dead = 3 + 4;
    int alive = 2;
    return alive;
}""", [Mem2Reg(), DeadCodeElimination()])
    fn = module.functions["main"]
    real = [i for i in fn.instructions() if not i.is_dbg()]
    assert len(real) <= 4


def test_dce_salvages_constant_dbg():
    module, _ = run_pipeline("""
int main(void) {
    int dead = 42;
    return 0;
}""", [Mem2Reg(), DeadCodeElimination()])
    fn = module.functions["main"]
    dbg = [i for i in fn.instructions()
           if isinstance(i, DbgValue) and i.symbol.name == "dead"]
    assert any(isinstance(d.value, Const) and d.value.value == 42
               for d in dbg)


def test_dce_salvages_affine():
    module, _ = run_pipeline("""
int g = 5;
int main(void) {
    int base = g;
    int derived = base + 10;
    g = base;
    return g;
}""", [Mem2Reg(), DeadCodeElimination()])
    fn = module.functions["main"]
    dbg = [i for i in fn.instructions()
           if isinstance(i, DbgValue) and i.symbol.name == "derived"]
    assert any(isinstance(d.value, AffineExpr) and d.value.add == 10
               for d in dbg)


def test_dce_keeps_side_effects():
    module, result = run_pipeline(
        "volatile int c;\nint main(void) { c = 1; return 0; }",
        [Mem2Reg(), DeadCodeElimination()])
    vstores = [o for o in result.observations if o.kind == "vstore"]
    assert vstores


def test_dce_removes_pure_calls_only_with_ipa():
    module, result = run_pipeline(CALLS, [
        Mem2Reg(), IPAPureConst(), DeadCodeElimination()])
    # zero() is pure but its result feeds r; the call to opaque remains.
    calls = [i for i in module.functions["main"].instructions()
             if isinstance(i, Call) and i.external]
    assert calls


# -- DCE salvage index (hand-built IR: each case pins one index rule) -------------

class _Hooks:
    """Fires every hook point in ``points`` and records the calls."""

    def __init__(self, *points):
        self.points = points
        self.calls = []

    def fires(self, point, **info):
        self.calls.append((point, info.get("vreg", info.get("callee"))))
        return point in self.points


def _hand_main():
    module = Module()
    fn = module.add_function(Function("main"))
    return module, fn


def _dbg(name, value):
    symbol = Symbol(name=name, type=INT, kind="local", decl=None,
                    function="main")
    return DbgValue(symbol=symbol, value=value)


def _run_dce(module, hooks=None):
    ctx = PassContext(module=module, hooks=hooks or _Hooks())
    return DeadCodeElimination().run(ctx)


def test_dce_salvages_loop_exit_dbg_of_deleted_induction_variable():
    module, fn = _hand_main()
    entry, loop, done = (fn.new_block(n) for n in ("entry", "loop", "exit"))
    b, i = VReg("b"), VReg("i")
    entry.instrs = [Load(dst=b, addr=GlobalRef("g")), Jump(target=loop)]
    in_loop = _dbg("x", i)
    loop.instrs = [BinOp(dst=i, op="+", a=b, b=Const(1)), in_loop,
                   Branch(cond=b, if_true=loop, if_false=done)]
    at_exit, scaled = _dbg("x", i), _dbg("y", AffineExpr(i, 2, 0, 1))
    done.instrs = [at_exit, scaled, Ret(value=b)]
    assert _run_dce(module)
    assert not any(isinstance(instr, BinOp) for instr in loop.instrs)
    for dbg in (in_loop, at_exit):
        assert (dbg.value.vreg, dbg.value.mul, dbg.value.add) == (b, 1, 1)
    assert (scaled.value.vreg, scaled.value.mul, scaled.value.add) == \
        (b, 2, 2)


@pytest.mark.parametrize("survives", [True, False])
def test_dce_leaves_other_blocks_alone_while_a_definition_survives(
        survives):
    # Both arms define t.  While the right arm's definition lives, the
    # join's dbg value keeps naming t; once DCE deletes it too, the
    # last deletion salvages the join against the right arm's t = b + 2.
    module, fn = _hand_main()
    entry, left, right, join = (fn.new_block(n) for n in
                                ("entry", "left", "right", "join"))
    b, t = VReg("b"), VReg("t")
    entry.instrs = [Load(dst=b, addr=GlobalRef("g")),
                    Branch(cond=b, if_true=left, if_false=right)]
    in_block = _dbg("x", t)
    left.instrs = [BinOp(dst=t, op="+", a=b, b=Const(1)), in_block,
                   Jump(target=join)]
    survivor = BinOp(dst=t, op="+", a=b, b=Const(2))
    right.instrs = [survivor, Jump(target=join)]
    if survives:
        right.instrs.insert(1, Store(addr=GlobalRef("g"), value=t))
    elsewhere = _dbg("x", t)
    join.instrs = [elsewhere, Ret(value=Const(0))]
    assert _run_dce(module)
    assert (in_block.value.vreg, in_block.value.add) == (b, 1)
    if survives:
        assert elsewhere.value is t
        assert survivor in right.instrs
    else:
        assert (elsewhere.value.vreg, elsewhere.value.add) == (b, 2)
        assert survivor not in right.instrs


def test_dce_salvages_through_a_chain_of_deleted_definitions():
    # u = t * 2 dies first and re-points both dbg values at t; the
    # index must list them under t so deleting t = b + 1 reaches the
    # one in the other block too.
    module, fn = _hand_main()
    entry, done = fn.new_block("entry"), fn.new_block("exit")
    b, t, u = VReg("b"), VReg("t"), VReg("u")
    after = _dbg("y", u)
    entry.instrs = [Load(dst=b, addr=GlobalRef("g")),
                    BinOp(dst=t, op="+", a=b, b=Const(1)),
                    BinOp(dst=u, op="*", a=t, b=Const(2)), after,
                    Jump(target=done)]
    later = _dbg("z", u)
    done.instrs = [later, Ret(value=b)]
    assert _run_dce(module)
    for dbg in (after, later):
        assert (dbg.value.vreg, dbg.value.mul, dbg.value.add) == (b, 2, 2)


def test_dce_salvages_self_referential_definition():
    # ``v = v + 1`` is the only definition of a parameter register, so
    # the function-wide sweep runs after the in-block rewrite.  That
    # rewrite still refers to v, so the sweep composes it once more,
    # exactly as the whole-function scan it replaced did.
    module, fn = _hand_main()
    entry, done = fn.new_block("entry"), fn.new_block("exit")
    v = VReg("v")
    fn.params.append((Symbol(name="v", type=INT, kind="param", decl=None,
                             function="main"), v))
    after = _dbg("x", v)
    entry.instrs = [BinOp(dst=v, op="+", a=v, b=Const(1)), after,
                    Jump(target=done)]
    later = _dbg("y", v)
    done.instrs = [later, Ret(value=Const(0))]
    assert _run_dce(module)
    assert (after.value.vreg, after.value.add) == (v, 2)
    assert (later.value.vreg, later.value.add) == (v, 1)


def test_dce_salvage_defect_kills_instead_of_salvaging():
    module, fn = _hand_main()
    entry, done = fn.new_block("entry"), fn.new_block("exit")
    b, t = VReg("b"), VReg("t")
    after = _dbg("x", t)
    entry.instrs = [Load(dst=b, addr=GlobalRef("g")),
                    BinOp(dst=t, op="+", a=b, b=Const(1)), after,
                    Jump(target=done)]
    later = _dbg("y", AffineExpr(t, 3, 0, 1))
    done.instrs = [later, Ret(value=b)]
    hooks = _Hooks("dce.salvage")
    assert _run_dce(module, hooks)
    assert after.value is None and later.value is None
    assert hooks.calls == [("dce.salvage", "t")]


@pytest.mark.parametrize("defective", [False, True])
def test_dce_call_path_leaves_harmless_stale_index_entries(defective):
    # The deleted pure call rewrites ``x`` without telling the index,
    # so ``x`` stays listed under r.  Deleting r's other definition
    # later sweeps that list: the stale entry must be skipped.
    module, fn = _hand_main()
    pure = module.add_function(Function("k"))
    pure.known_pure, pure.const_return = True, 7
    block = fn.new_block("entry")
    r = VReg("r")
    first, from_call = _dbg("y", r), _dbg("x", r)
    block.instrs = [Move(dst=r, src=Const(5)), first,
                    Call(dst=r, callee="k"), from_call,
                    Ret(value=Const(0))]
    hooks = _Hooks("ipa.salvage_const" if defective else None)
    assert _run_dce(module, hooks)
    assert block.instrs[-1].is_terminator() and len(block.instrs) == 3
    assert first.value == Const(5)
    assert from_call.value == (None if defective else Const(7))
    assert hooks.calls == [("ipa.salvage_const", "k"),
                           ("dce.salvage", "r")]


# -- copy propagation / CSE -------------------------------------------------------

def test_copyprop_forwards_copies():
    module, result = run_pipeline("""
int g = 9;
int main(void) {
    int a = g;
    int b = a;
    return b;
}""", [Mem2Reg(), CopyPropagation(), DeadCodeElimination()])
    assert result.exit_code == 9


def test_fre_eliminates_redundancy():
    module, result = run_pipeline("""
int g = 6;
int main(void) {
    int a = g * 2;
    int b = g * 2;
    return a + b;
}""", [Mem2Reg(), RedundancyElimination(), DeadCodeElimination()])
    assert result.exit_code == 24
    fn = module.functions["main"]
    muls = [i for i in fn.instructions()
            if isinstance(i, BinOp) and i.op == "*"]
    assert len(muls) <= 1


def test_fre_respects_redefinition():
    _, result = run_pipeline("""
int g = 2;
int main(void) {
    int a = g + 1;
    g = 10;
    int b = g + 1;
    return a * 100 + b;
}""", [Mem2Reg(), RedundancyElimination()])
    assert result.exit_code == (3 * 100 + 11) % 256


# -- instcombine ------------------------------------------------------------------

@pytest.mark.parametrize("expr,expected", [
    ("x * 1", 7), ("x + 0", 7), ("x | 0", 7), ("x ^ 0", 7),
    ("x * 0", 0), ("x & 0", 0), ("x - x", 0), ("x ^ x", 0),
    ("x & x", 7), ("x | x", 7), ("x * 8", 56),
])
def test_instcombine_identities(expr, expected):
    _, result = run_pipeline(f"""
int g = 7;
int main(void) {{
    int x = g;
    int r = {expr};
    return r;
}}""", [Mem2Reg(), InstCombine()])
    assert result.exit_code == expected


def test_instcombine_strength_reduction_to_shift():
    module, _ = run_pipeline("""
int g = 3;
int main(void) {
    int x = g;
    return x * 4;
}""", [Mem2Reg(), InstCombine()])
    fn = module.functions["main"]
    shifts = [i for i in fn.instructions()
              if isinstance(i, BinOp) and i.op == "<<"]
    assert shifts


# -- loops ---------------------------------------------------------------------------

def test_loop_rotate_preserves_semantics():
    run_pipeline(LOOPY, [Mem2Reg(), LoopRotate()])


def test_unroll_small_loop():
    module, result = run_pipeline("""
volatile int c;
int main(void) {
    int i, total = 0;
    for (i = 0; i < 3; i++) {
        total = total + i;
        c = total;
    }
    return total;
}""", [Mem2Reg(), ConstantPropagation(), LoopUnroll()])
    assert result.exit_code == 3
    from repro.ir.instructions import Branch
    fn = module.functions["main"]
    assert not any(isinstance(i, Branch) for i in fn.instructions())


def test_unroll_respects_trip_limit():
    module, _ = run_pipeline("""
volatile int c;
int main(void) {
    int i;
    for (i = 0; i < 100; i++)
        c = i;
    return 0;
}""", [Mem2Reg(), ConstantPropagation(), LoopUnroll(max_trips=8)])
    from repro.ir.instructions import Branch
    fn = module.functions["main"]
    assert any(isinstance(i, Branch) for i in fn.instructions())


def test_lsr_strength_reduces():
    module, result = run_pipeline(LOOPY, [
        Mem2Reg(), ConstantPropagation(), LoopStrengthReduce()])
    assert result.observations  # volatile loads/stores preserved


def test_lsr_salvages_induction_dbg():
    module, _ = run_pipeline(LOOPY, [
        Mem2Reg(), ConstantPropagation(), LoopStrengthReduce(),
        DeadCodeElimination()])
    fn = module.functions["main"]
    affine = [i for i in fn.instructions()
              if isinstance(i, DbgValue) and
              isinstance(i.value, AffineExpr) and i.value.div > 1]
    # The i induction variable indexes a stride-4 array; if LSR
    # eliminated it, the salvage is an exact-division expression.
    all_dbg_i = [i for i in fn.instructions()
                 if isinstance(i, DbgValue) and i.symbol.name == "i"]
    assert all_dbg_i
    assert all(d.value is not None for d in all_dbg_i)


def test_licm_hoists_invariant_load():
    module, _ = run_pipeline("""
int g = 5;
volatile int c;
int main(void) {
    int i;
    for (i = 0; i < 3; i++)
        c = g + 1;
    return 0;
}""", [Mem2Reg(), LoopInvariantCodeMotion()])


# -- inlining ---------------------------------------------------------------------------

def test_inliner_inlines_small_functions():
    module, result = run_pipeline(CALLS, [Mem2Reg(), Inliner()])
    fn = module.functions["main"]
    internal_calls = [i for i in fn.instructions()
                      if isinstance(i, Call) and not i.external]
    assert not internal_calls


def test_inliner_creates_inline_scopes():
    module, _ = run_pipeline(CALLS, [Mem2Reg(), Inliner()])
    fn = module.functions["main"]
    scopes = {i.scope.callee for i in fn.instructions()
              if i.scope is not None}
    assert "add" in scopes


def test_inliner_binds_param_dbg():
    module, _ = run_pipeline(CALLS, [Mem2Reg(), Inliner()])
    fn = module.functions["main"]
    dbg = [i for i in fn.instructions()
           if isinstance(i, DbgValue) and i.scope is not None]
    names = {d.symbol.name for d in dbg}
    assert {"a", "b"} <= names


def test_inliner_respects_threshold():
    module, _ = run_pipeline(CALLS, [Mem2Reg(), Inliner(threshold=0)])
    fn = module.functions["main"]
    internal_calls = [i for i in fn.instructions()
                      if isinstance(i, Call) and not i.external]
    assert internal_calls, "threshold 0 must inline nothing"


# -- scheduler / simplifycfg / vrp / dse ----------------------------------------------

def test_scheduler_preserves_semantics():
    run_pipeline(SIMPLE, [Mem2Reg(), InstructionScheduler()])
    run_pipeline(LOOPY, [Mem2Reg(), InstructionScheduler()])


def test_simplifycfg_merges_blocks():
    module, _ = run_pipeline(SIMPLE, [Mem2Reg(), SimplifyCFG()])
    fn = module.functions["main"]
    assert len(fn.blocks) <= 2


def test_vrp_folds_implied_comparison():
    _, result = run_pipeline("""
int g = 7;
int main(void) {
    int x = g;
    if (x == 5) {
        if (x < 6)
            return 1;
        return 2;
    }
    return 3;
}""", [Mem2Reg(), ValueRangePropagation(), ConstantPropagation()])
    assert result.exit_code == 3


def test_dse_removes_never_read_address_taken_store():
    module, _ = run_pipeline("""
int sink(int *p) { return 0; }
int main(void) {
    int x = 1;
    x = 2;
    int *q = &x;
    return 0;
}""", [Mem2Reg(), DeadStoreElimination()])


def test_full_pipeline_many_rounds():
    passes = [
        Mem2Reg(), IPAPureConst(), Inliner(), InstCombine(),
        ConstantPropagation(), ValueRangePropagation(),
        CopyPropagation(), RedundancyElimination(),
        LoopInvariantCodeMotion(), LoopRotate(), LoopUnroll(),
        LoopStrengthReduce(), DeadStoreElimination(),
        DeadCodeElimination(), InstructionScheduler(),
    ]
    for src in (SIMPLE, LOOPY, CALLS):
        run_pipeline(src, passes)
