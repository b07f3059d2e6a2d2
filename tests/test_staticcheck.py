"""Static debug-info verifier: zero false positives on defect-free
toolchains, golden findings per statically-detectable defect shape,
artifact round-trips, and the static-vs-dynamic report join."""

import json
import os

import pytest

from repro.bugs.defects import Defect
from repro.compilers import Compiler
from repro.compilers.frontend import FrontendSession
from repro.debuginfo.die import DIE, TAG_VARIABLE
from repro.debuginfo.linetable import LineEntry
from repro.debuginfo.location import LocEntry, RegLoc
from repro.ir.instructions import Move
from repro.ir.liveness import dead_definitions
from repro.ir.values import Const, VReg
from repro.report import load_artifact, render
from repro.report.tables import verify_findings_table, verify_table
from repro.staticcheck import (
    Finding, StaticCheckError, VerifyCampaignResult, check_availability,
    check_dies, check_lines, run_verify_campaign, verify_compilation,
    verify_executable,
)
from repro.staticcheck.availability import _Replay
from repro.target.codegen import link

CLEAN_SEEDS = 30

#: The catalog defect ids the verifier must flag statically (the
#: acceptance criterion asks for >= 5 distinct ids).
STATIC_CATALOG_IDS = {
    "clang-49546", "clang-49580", "clang-51780", "clang-55115",
    "gdb-28987", "gdb-29060", "lldb-50076",
}


def clean_compiler(family, verify=False):
    compiler = Compiler(family, "trunk", verify=verify)
    compiler.defects = []
    return compiler


def targeted_compiler(family, point):
    """A compiler whose only defect always fires at one hook point."""
    compiler = Compiler(family, "trunk")
    compiler.defects = [Defect(defect_id=f"test-{point}", point=point,
                               family=family, pass_name="codegen")]
    return compiler


def _clean_compilation(program, family="gcc", level="O2"):
    return clean_compiler(family).compile(program, level)


# -- the zero-false-positive bar ----------------------------------------------


@pytest.mark.parametrize("family", ["gcc", "clang"])
def test_zero_findings_on_clean_corpus(family):
    """A defect-free toolchain yields zero findings: 30 seeds, every
    optimization level (O0 included)."""
    compiler = clean_compiler(family)
    for seed in range(CLEAN_SEEDS):
        session = FrontendSession(seed)
        for level in compiler.levels:
            compilation = compiler.compile_ir(
                session.ir_module(), level,
                program_token=session.program_token)
            found = verify_compilation(compilation)
            assert found == [], (
                f"{family} {level} seed={seed}: "
                + "; ".join(str(f) for f in found))


def test_hardened_ir_verifier_over_corpus():
    """The hardened ir.verify (dbg operands + dominance) stays green
    after every pass, defects injected or not."""
    for family in ("gcc", "clang"):
        for compiler in (Compiler(family, "trunk", verify=True),
                         clean_compiler(family, verify=True)):
            for seed in range(8):
                session = FrontendSession(seed)
                for level in compiler.levels:
                    compiler.compile_ir(session.ir_module(), level,
                                        program_token=session.program_token)


# -- golden findings per statically-detectable defect shape -------------------


def test_drop_die_yields_missing_die(loop_program):
    compilation = targeted_compiler(
        "clang", "codegen.drop_die").compile(loop_program, "O2")
    checks = {f.check for f in verify_compilation(compilation)}
    assert "missing-die" in checks


def test_keep_empty_entries_yields_empty_entry(loop_program):
    compilation = targeted_compiler(
        "gcc", "codegen.keep_empty_entries").compile(loop_program, "O2")
    checks = {f.check for f in verify_compilation(compilation)}
    assert "empty-entry" in checks


def test_concrete_lexical_block_yields_mismatch(call_program):
    compilation = targeted_compiler(
        "gcc", "codegen.concrete_lexical_block").compile(
            call_program, "O2")
    checks = {f.check for f in verify_compilation(compilation)}
    assert "lexical-block-mismatch" in checks


def test_abstract_only_location_yields_gap_and_abstract_location(
        call_program):
    compilation = targeted_compiler(
        "clang", "codegen.abstract_only_location").compile(
            call_program, "O2")
    checks = {f.check for f in verify_compilation(compilation)}
    assert "abstract-location" in checks
    assert "availability-gap" in checks


def test_catalog_defects_detected_statically():
    """Across a small corpus the verifier statically flags every
    statically-detectable catalog defect id (>= 5 required)."""
    detected = set()
    for family in ("gcc", "clang"):
        compiler = Compiler(family, "trunk")
        points = {d.defect_id: d.point for d in compiler.defects}
        for seed in range(12):
            session = FrontendSession(seed)
            for level in compiler.levels:
                compilation = compiler.compile_ir(
                    session.ir_module(), level,
                    program_token=session.program_token)
                fired = set(compilation.fired_defects())
                if not fired:
                    continue
                hit = {f.point() for f in
                       verify_compilation(compilation)} - {""}
                detected.update(d for d in fired
                                if points.get(d, "") in hit)
    assert detected == STATIC_CATALOG_IDS
    assert len(detected) >= 5


# -- structural checks on mutated artifacts -----------------------------------


def test_dangling_origin_flagged(loop_program):
    compilation = _clean_compilation(loop_program)
    main = compilation.exe.debug.subprogram_by_name("main")
    var = next(die for die in main.walk() if die.is_variable())
    var.attrs["abstract_origin"] = DIE(TAG_VARIABLE, {"name": "ghost"})
    checks = {f.check for f in check_dies(compilation.exe)}
    assert "dangling-origin" in checks


def test_inverted_subprogram_range_flagged(loop_program):
    compilation = _clean_compilation(loop_program)
    main = compilation.exe.debug.subprogram_by_name("main")
    main.attrs["high_pc"] = main.attrs["low_pc"] - 1
    checks = {f.check for f in check_dies(compilation.exe)}
    assert "inverted-range" in checks


def test_overlapping_subprograms_flagged(call_program):
    compilation = _clean_compilation(call_program, level="Og")
    exe = compilation.exe
    subs = [die for die in exe.debug.root.children
            if die.low_pc is not None]
    assert len(subs) >= 2
    subs[1].attrs["low_pc"] = subs[0].attrs["low_pc"]
    checks = {f.check for f in check_dies(exe)}
    assert "overlapping-subprograms" in checks


def test_loclist_entry_escaping_function_flagged(loop_program):
    compilation = _clean_compilation(loop_program)
    exe = compilation.exe
    main = exe.debug.subprogram_by_name("main")
    die = next(d for d in main.walk()
               if d.is_variable() and d.location is not None)
    entry = die.location.entries[0]
    die.location.entries.append(
        LocEntry(entry.lo, len(exe.instrs) + 7, entry.loc))
    checks = {f.check for f in check_dies(exe)}
    assert "entry-out-of-range" in checks


def test_line_table_mutations_flagged(loop_program):
    compilation = _clean_compilation(loop_program)
    exe = compilation.exe
    entries = exe.line_table.entries
    assert check_lines(exe) == []

    # Non-monotone addresses.
    entries[0], entries[1] = entries[1], entries[0]
    assert "line-order" in {f.check for f in check_lines(exe)}
    entries[0], entries[1] = entries[1], entries[0]

    # A row disagreeing with the instruction stream.
    entries[0] = LineEntry(entries[0].addr, entries[0].line + 40)
    assert "line-mismatch" in {f.check for f in check_lines(exe)}

    # A row pointing outside the code.
    entries[0] = LineEntry(len(exe.instrs) + 3, 1)
    assert "line-bounds" in {f.check for f in check_lines(exe)}

    # An instruction with a line but no row (unbreakpointable line).
    removed = entries.pop(0)
    found = {f.check for f in check_lines(exe)}
    assert "line-missing" in found
    del removed


def test_phantom_location_flagged(loop_program):
    compilation = _clean_compilation(loop_program)
    exe, module = compilation.exe, compilation.module
    main = exe.debug.subprogram_by_name("main")
    die = next(d for d in main.walk()
               if d.is_variable() and d.location is not None)
    entry = die.location.entries[0]
    # A register-based entry no debug event backs, naming a register no
    # instruction writes: the strongest wrong-value candidate.
    die.location.entries.append(
        LocEntry(entry.lo, entry.hi, RegLoc(999)))
    checks = {f.check for f in check_availability(exe, module)}
    assert "dead-register-location" in checks


def test_dead_definition_location_flagged(loop_program):
    """A location entry naming a register only written by a dead
    definition is classified via ir.liveness.dead_definitions."""
    compilation = _clean_compilation(loop_program, level="Og")
    module = compilation.module
    fn = module.functions["main"]
    dead = VReg("dead")
    fn.blocks[0].instrs.insert(0, Move(dst=dead, src=Const(7),
                                       line=None))
    assert any(instr.defs() is dead
               for _block, instr in dead_definitions(fn))

    exe = link(module)
    replay = _Replay(fn, exe.functions["main"], exe.global_addr)
    phys = replay.reg_map[dead]
    main = exe.debug.subprogram_by_name("main")
    die = next(d for d in main.walk()
               if d.is_variable() and d.location is not None)
    entry = die.location.entries[0]
    die.location.entries[0] = LocEntry(entry.lo, entry.hi, RegLoc(phys))
    findings = check_availability(exe, module)
    dead_findings = [f for f in findings
                     if f.check == "dead-register-location"]
    assert dead_findings
    assert any("dead definitions" in f.detail for f in dead_findings)


def test_mismatched_module_and_exe_raise():
    first = clean_compiler("gcc").compile_ir(
        FrontendSession(0).ir_module(), "O2")
    second = clean_compiler("gcc").compile_ir(
        FrontendSession(1).ir_module(), "O2")
    with pytest.raises(StaticCheckError):
        verify_executable(first.exe, second.module)


# -- campaign drivers and the artifact ----------------------------------------


def test_verify_campaign_round_trip():
    result = run_verify_campaign(clean_compiler("gcc"), pool_size=3)
    assert result.clean()
    assert result.pool_size == 3
    assert [p.seed for p in result.programs] == [0, 1, 2]
    assert all(p.fingerprint for p in result.programs)
    assert set(result.programs[0].findings) == set(result.levels)
    loaded = VerifyCampaignResult.from_json(result.to_json(indent=2))
    assert loaded.to_dict() == result.to_dict()


def test_verify_campaign_records_findings_and_fired():
    result = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=4)
    assert not result.clean()
    assert any(p.fired for p in result.programs)
    counts = result.check_counts()
    assert "empty-entry" in counts
    loaded = load_artifact(result.to_json())
    assert isinstance(loaded, VerifyCampaignResult)
    assert loaded.to_dict() == result.to_dict()


# (Merged-shards-vs-single-run identity and merge rejection live in
# tests/test_merge_algebra.py, covering all five artifact schemas;
# sharded == serial lives in tests/test_unit_drivers.py.)


# -- report integration --------------------------------------------------------


def test_verify_findings_table_shape():
    result = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=4)
    table = verify_findings_table(result)
    assert table.columns == ["check"] + list(result.levels) + ["total"]
    assert table.rows
    totals = {row[0]: row[-1] for row in table.rows}
    assert sum(totals.values()) == result.finding_count()


def test_verify_table_against_dynamic_campaign():
    from repro.debugger import GdbLike
    from repro.pipeline import run_campaign
    verify = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=6)
    campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                            pool_size=6)
    table = verify_table(verify, campaign)
    assert table.columns == ["defect", "hook point", "fired", "static",
                            "dynamic", "class"]
    classes = {row[0]: row[5] for row in table.rows}
    assert set(classes.values()) <= {"both", "static-only",
                                     "dynamic-only", "undetected"}
    # The empty-entry defect fires broadly and is always statically
    # visible; dynamically it only shows when stepping lands on it.
    assert classes["gdb-28987"] in ("both", "static-only")
    statics = {row[0] for row in table.rows if row[3] > 0}
    assert statics <= STATIC_CATALOG_IDS
    # Without the campaign the dynamic column collapses.
    solo = verify_table(verify)
    assert {row[4] for row in solo.rows} == {"-"}
    assert render(table, "md").startswith("## Static verification")


def test_verify_table_rejects_mismatched_toolchains():
    verify = run_verify_campaign(clean_compiler("gcc"), pool_size=1)
    from repro.pipeline.campaign import CampaignResult
    other = CampaignResult(family="clang", version="trunk",
                           levels=["O2"], pool_size=0)
    with pytest.raises(ValueError):
        verify_table(verify, other)


def test_report_cli_verify_round_trip(tmp_path):
    from repro.debugger import GdbLike
    from repro.pipeline import run_campaign
    from repro.report.cli import main as report_main
    verify = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=3)
    campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                            pool_size=3)
    verify_path = tmp_path / "verify.json"
    campaign_path = tmp_path / "campaign.json"
    verify_path.write_text(verify.to_json(indent=2), encoding="utf-8")
    campaign_path.write_text(campaign.to_json(indent=2),
                             encoding="utf-8")
    out = tmp_path / "verify.md"
    assert report_main(["verify", str(verify_path), str(campaign_path),
                        "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "Static verification — findings vs fired defects" in text
    assert "gdb-28987" in text


def test_render_all_pairs_verify_with_campaign(tmp_path):
    from repro.debugger import GdbLike
    from repro.pipeline import run_campaign
    from repro.report.manifest import render_all
    verify = run_verify_campaign(Compiler("gcc", "trunk"), pool_size=3)
    campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                            pool_size=3)
    manifest = render_all([verify, campaign], str(tmp_path),
                          formats=("md",), include_catalog=False)
    deliverables = {r["deliverable"] for r in manifest["reports"]}
    assert "verify" in deliverables
    text = (tmp_path / "verify.md").read_text(encoding="utf-8")
    # The dynamic column is filled, proving the join happened.
    assert "dynamic" in text and " - " not in text.split("| --- |")[0]
    sources = {s["schema"] for s in manifest["sources"]}
    assert "repro-verify/1" in sources


def test_verify_cli_writes_artifact(tmp_path):
    from repro.staticcheck.cli import main as verify_main
    out = tmp_path / "verify.json"
    assert verify_main(["--family", "gcc", "--pool-size", "2",
                        "--workers", "1", "--quiet",
                        "--output", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["schema"] == "repro-verify/1"
    assert data["pool_size"] == 2


FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "data", "verify_artifact_v1.json")


def test_verify_artifact_schema_stability():
    """A stored v1 artifact must keep loading, byte for byte.

    The fixture was produced by ``repro-verify`` at the time the schema
    was introduced; the expected aggregates below describe the *stored*
    data, so they stay valid even if the generator or checkers evolve.
    If this test breaks, a schema migration (not a fixture update) is
    the required fix.
    """
    with open(FIXTURE, encoding="utf-8") as handle:
        text = handle.read()
    result = VerifyCampaignResult.from_json(text)
    assert result.family == "gcc"
    assert result.version == "trunk"
    assert result.pool_size == 4
    assert result.levels == ["O0", "Og", "O1", "O2", "O3", "Os", "Oz"]
    assert result.finding_count() == 40
    assert all(p.fingerprint for p in result.programs)
    # round-trips through the current serializer without loss
    loaded = VerifyCampaignResult.from_json(result.to_json())
    assert loaded.to_dict() == result.to_dict()
    assert isinstance(load_artifact(text), VerifyCampaignResult)


# -- finding model -------------------------------------------------------------


def test_finding_round_trip_and_order():
    finding = Finding(check="empty-entry", category="location",
                      function="main", symbol="x", lo=3, hi=3,
                      detail="kept an empty entry")
    assert Finding.from_dict(finding.to_dict()) == finding
    assert "empty-entry" in str(finding)
    assert finding.point() == "codegen.keep_empty_entries"
    assert Finding(check="line-order", category="line").point() == ""
