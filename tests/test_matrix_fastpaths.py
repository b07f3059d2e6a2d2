"""Differential tests for the compile-once matrix and the hot-path
overhauls.

Everything here pins one contract: **the fast path is bit-identical to
the reference path**.

* dispatch-table :class:`~repro.target.vm.VM` vs the isinstance-chain
  :class:`~repro.target.vm.ReferenceVM` over the fuzz corpus;
* bisect-indexed ``LocationList.lookup`` / ``LineTable.line_at`` vs the
  retained linear reference implementations;
* single-execution :func:`~repro.debugger.base.trace_all` vs one
  :meth:`~repro.debugger.base.Debugger.trace` per debugger;
* :func:`~repro.pipeline.matrix.run_matrix_campaign` (and its sharded
  variant) vs the per-cell reference
  :func:`~repro.pipeline.campaign.run_campaign_on_programs` (one
  ``Compiler.compile`` per level), ``to_json()``-identical over a
  30-seed pool;
* the compile-once metrics study vs the per-cell serial study;
* the :func:`~repro.fuzz.generator.generate_validated` LRU.
"""

import random

import pytest

from repro.compilers import Compiler, FrontendSession
from repro.debugger import DebuggerSpec, GdbLike, LldbLike, trace_all
from repro.debuginfo.location import FrameLoc, LocationList, RegLoc
from repro.fuzz import SeedSpec, generate_validated
from repro.ir.clone import clone_module, module_fingerprint
from repro.metrics import run_study_seeds
from repro.pipeline import (
    MatrixCampaignResult, run_campaign_on_programs, run_matrix_campaign,
    run_matrix_campaign_parallel, run_matrix_study,
)
from repro.pipeline.cli import main as campaign_cli
from repro.target import ReferenceVM, VM, link
from repro.target.vm import run_executable

#: The acceptance pool: big enough to fire defects in every family.
MATRIX_POOL = 30

FAMILIES = ("gcc", "clang")
DEBUGGERS = (GdbLike, LldbLike)


@pytest.fixture(scope="module")
def matrix_30():
    return run_matrix_campaign(pool_size=MATRIX_POOL)


# -- VM dispatch table --------------------------------------------------------


def _result_key(result):
    return (result.exit_code, result.steps, result.observations)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("level", ["O0", "O2", "O3"])
def test_dispatch_vm_matches_isinstance_vm(seed, level):
    program = generate_validated(seed)
    exe = Compiler("gcc", "trunk").compile(program, level).exe
    fast = VM(exe).run()
    reference = ReferenceVM(exe).run()
    assert _result_key(fast) == _result_key(reference)


def test_dispatch_vm_matches_reference_under_debugger(call_program):
    exe = Compiler("clang", "trunk").compile(call_program, "O2").exe
    stops_fast, stops_ref = [], []
    for cls, stops in ((VM, stops_fast), (ReferenceVM, stops_ref)):
        vm = cls(exe)
        bps = set(range(len(exe.instrs)))

        def on_break(state, stops=stops):
            state.breakpoints.discard(state.pc)
            stops.append((state.pc, dict(state.frame.regs)))

        vm.run(breakpoints=bps, on_break=on_break)
    assert stops_fast == stops_ref


def test_vm_rejects_unknown_instruction():
    program = generate_validated(0)
    exe = Compiler("gcc", "trunk").compile(program, "O0").exe
    vm = VM(exe)
    exe.instrs[vm.pc] = object()
    with pytest.raises(TypeError):
        vm.step()


def test_run_executable_uses_fast_vm(call_program):
    exe = Compiler("gcc", "trunk").compile(call_program, "O1").exe
    assert run_executable(exe).exit_code == \
        ReferenceVM(exe).run().exit_code


# -- debuginfo bisect indexes -------------------------------------------------


def _random_loclist(rng):
    out = LocationList()
    for _ in range(rng.randint(0, 8)):
        lo = rng.randint(0, 60)
        hi = lo + rng.randint(-2, 12)  # empty and inverted entries too
        loc = RegLoc(rng.randint(0, 5)) if rng.random() < 0.5 \
            else FrameLoc(rng.randint(0, 5))
        out.add(lo, hi, loc)
    return out


def test_loclist_bisect_lookup_matches_linear_fuzzed():
    rng = random.Random(1234)
    for _ in range(300):
        loclist = _random_loclist(rng)
        for pc in range(0, 75):
            assert loclist.lookup(pc) == loclist.lookup_linear(pc), \
                (loclist, pc)


def test_loclist_lookup_before_empty_matches_derailed_scan():
    rng = random.Random(99)
    for _ in range(300):
        loclist = _random_loclist(rng)

        def derailed(pc):
            for entry in loclist.entries:
                if entry.empty:
                    return None
                if entry.covers(pc):
                    return entry.loc
            return None

        for pc in range(0, 75):
            assert loclist.lookup_before_empty(pc) == derailed(pc)


def test_loclist_index_invalidated_by_add():
    loclist = LocationList()
    loclist.add(0, 10, RegLoc(1))
    assert loclist.lookup(20) is None
    loclist.add(15, 25, RegLoc(2))
    assert loclist.lookup(20) == RegLoc(2)
    assert loclist.lookup_before_empty(20) == RegLoc(2)


def test_linetable_bisect_matches_linear_on_real_executables():
    for seed in range(8):
        program = generate_validated(seed)
        for level in ("O0", "O2"):
            exe = Compiler("gcc", "trunk").compile(program, level).exe
            table = exe.line_table
            top = max((e.addr for e in table.entries), default=0) + 3
            for addr in range(-1, top):
                assert table.line_at(addr) == \
                    table.line_at_linear(addr), (seed, level, addr)


def test_linetable_caches_invalidated_by_add():
    from repro.debuginfo.linetable import LineTable
    table = LineTable()
    table.add(0, 5)
    assert table.line_at(3) == 5
    assert table.breakpoint_addrs() == {5: [0]}
    table.add(4, 9)
    assert table.line_at(6) == 9
    assert table.breakpoint_addrs() == {5: [0], 9: [4]}
    assert table.addr_ranges_of_line(5) == [(0, 4)]


# -- one-execution multi-debugger tracing ------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_trace_all_matches_individual_traces(seed):
    program = generate_validated(seed)
    for family in FAMILIES:
        exe = Compiler(family, "trunk").compile(program, "O2").exe
        debuggers = [cls() for cls in DEBUGGERS]
        shared = trace_all(exe, debuggers)
        for debugger, trace in zip(debuggers, shared):
            alone = type(debugger)().trace(
                Compiler(family, "trunk").compile(program, "O2").exe)
            assert trace == alone


# -- frontend session / IR cloning -------------------------------------------


def test_clone_module_is_independent_and_equivalent():
    session = FrontendSession(5)
    base_fp = module_fingerprint(session.base_module)
    compiler = Compiler("gcc", "trunk")
    first = compiler.compile_ir(session.ir_module(), "O3",
                                program_token=session.program_token)
    # The pristine base must be untouched by the cell's pass pipeline.
    assert module_fingerprint(session.base_module) == base_fp
    second = compiler.compile_ir(session.ir_module(), "O3",
                                 program_token=session.program_token)
    assert VM(first.exe).run().observations == \
        VM(second.exe).run().observations
    assert first.exe.debug.dump() == second.exe.debug.dump()


def test_clone_fingerprint_matches_fresh_lowering():
    from repro.analysis.symbols import resolve
    from repro.ir.lower import lower_program
    program = generate_validated(11)
    fresh_a = lower_program(program, resolve(program))
    fresh_b = lower_program(program, resolve(program))
    assert module_fingerprint(fresh_a) == module_fingerprint(fresh_b)
    assert module_fingerprint(clone_module(fresh_a)) == \
        module_fingerprint(fresh_a)


def test_clone_continues_slot_numbering_after_deletions():
    # A pass deleted the highest slot: the clone's next slot id is the
    # source's, not one past the highest live slot.
    module = FrontendSession(0).ir_module()
    fn = next(fn for fn in module.functions.values() if fn.slots)
    del fn.slots[max(fn.slots)]
    clone = clone_module(module).functions[fn.name]
    assert clone.new_slot("t").slot_id == fn.new_slot("t").slot_id


def test_session_o0_link_matches_compiler_o0(call_program):
    session = FrontendSession(0, program=call_program)
    via_session = link(session.ir_module())
    via_compiler = Compiler("gcc", "trunk").compile(call_program, "O0").exe
    assert GdbLike().trace(via_session) == GdbLike().trace(via_compiler)


# -- the acceptance pin: matrix == per-cell, bit for bit ----------------------


def test_matrix_campaign_bit_identical_to_per_cell_runs(matrix_30):
    # The reference is independent of the matrix driver (run_campaign
    # is the 1x1 matrix): one Compiler.compile per level, re-resolving
    # and re-lowering every program each time.
    programs = [generate_validated(seed) for seed in range(MATRIX_POOL)]
    for family in FAMILIES:
        for debugger_cls in DEBUGGERS:
            per_cell = run_campaign_on_programs(
                programs, Compiler(family, "trunk"), debugger_cls())
            cell = matrix_30.cell(family, "trunk", debugger_cls.name)
            assert cell.to_json() == per_cell.to_json(), \
                (family, debugger_cls.name)


def test_matrix_serial_vs_sharded_in_process(matrix_30):
    sharded = run_matrix_campaign_parallel(pool_size=MATRIX_POOL,
                                           workers=1)
    assert sharded.to_json() == matrix_30.to_json()


def test_matrix_fingerprints_cover_every_seed(matrix_30):
    assert sorted(matrix_30.fingerprints) == list(range(MATRIX_POOL))
    assert all(len(fp) == 64 for fp in matrix_30.fingerprints.values())


def test_matrix_json_roundtrip(matrix_30):
    loaded = MatrixCampaignResult.from_json(matrix_30.to_json())
    assert loaded.to_json() == matrix_30.to_json()


def test_matrix_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema"):
        MatrixCampaignResult.from_json('{"schema": "nope"}')


def test_matrix_merge_rejects_fingerprint_divergence():
    a = run_matrix_campaign(pool_size=2, families=("gcc",),
                            debuggers=("gdb-like",))
    b = run_matrix_campaign(pool_size=2, seed_base=2,
                            families=("gcc",), debuggers=("gdb-like",))
    merged = a.merge(b)
    assert merged.pool_size == 4
    b_bad = MatrixCampaignResult.from_json(b.to_json())
    b_bad.fingerprints[0] = "0" * 64  # overlaps seed 0 with a lie
    with pytest.raises(ValueError, match="disagree"):
        a.merge(b_bad)


def test_matrix_rejects_duplicate_cells():
    with pytest.raises(ValueError, match="duplicate matrix cell"):
        run_matrix_campaign(pool_size=1, families=("gcc", "gcc"),
                            debuggers=("gdb-like",))


def test_matrix_cli_dedupes_families():
    from repro.pipeline.cli import _parse_families
    assert _parse_families("gcc,gcc,clang") == ("gcc", "clang")


def test_matrix_merge_rejects_different_cell_sets():
    a = run_matrix_campaign(pool_size=1, families=("gcc",),
                            debuggers=("gdb-like",))
    b = run_matrix_campaign(pool_size=1, seed_base=1,
                            families=("clang",), debuggers=("gdb-like",))
    with pytest.raises(ValueError, match="cell sets"):
        a.merge(b)


def test_matrix_study_matches_serial_study():
    levels = ["Og", "O2"]
    serial = run_study_seeds(SeedSpec(0, 5), "gcc", ["trunk"], levels,
                             GdbLike())
    matrix = run_matrix_study("gcc", ["trunk"], levels,
                              DebuggerSpec("gdb-like"), pool_size=5)
    assert matrix.to_json() == serial.to_json()


def test_matrix_cli_writes_artifact(tmp_path):
    out = tmp_path / "matrix.json"
    rc = campaign_cli(["--families", "gcc,clang", "--pool-size", "2",
                       "--serial", "--quiet", "--output", str(out)])
    assert rc == 0
    loaded = MatrixCampaignResult.from_json(out.read_text())
    assert loaded.pool_size == 2
    assert len(loaded.cells) == 4


def test_matrix_cli_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit):
        campaign_cli(["--families", "gcc,icc"])
    assert "icc" in capsys.readouterr().err


# -- generate_validated memoization ------------------------------------------


def test_generate_validated_lru_hits_and_identity():
    generate_validated.cache_clear()
    first = generate_validated(123456)
    info = generate_validated.cache_info()
    assert info.misses >= 1
    again = generate_validated(123456)
    assert again is first  # shared canonicalized AST
    assert generate_validated.cache_info().hits >= info.hits + 1


def test_generate_validated_options_path_not_cached():
    from repro.fuzz import FuzzOptions
    generate_validated.cache_clear()
    options = FuzzOptions.assortment(7)
    a = generate_validated(7, options=options)
    b = generate_validated(7, options=options)
    assert a is not b
    assert generate_validated.cache_info().currsize == 0
