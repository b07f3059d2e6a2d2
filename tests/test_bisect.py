"""Differential tests for version-axis defect bisection.

The acceptance bar of the bisection subsystem is *catalog ground
truth*: for every defect that fired on its support axis, the bisected
``(last_good, first_bad, fixed_in)`` window must equal
:func:`~repro.bisect.core.expected_window` — the catalog's
``introduced``/``fixed_in`` claim clipped to the versions whose
pipeline schedules the host pass.  The suite checks that over 30 seeds
x both families (100% of fired records), plus:

* :func:`bisect_defect` unit behaviour — anchored interior windows,
  anchorless segment scan (the non-monotone case), disowned anchors,
  probe economy;
* probe-count bounds per record and memoization accounting;
* log-derived isolated probes equal single-defect compiles;
* store-backed resume with zero recompiles (serial == sharded lives in
  ``tests/test_unit_drivers.py``);
* fold edges, record round-trip, report and CLI surface (round-trip,
  foreign-schema and merge rejection live in
  ``tests/test_merge_algebra.py``).
"""

import math
import os

import pytest

from repro.bisect import (
    BISECT_SCHEMA, BisectCampaignResult, BisectOutcome, BisectRecord,
    VersionProber, bisect_defect, expected_window, family_versions,
    pass_support, run_bisect_campaign, witness_fingerprint,
)
from repro.bugs.catalog import defects_for_family
from repro.compilers import Compiler
from repro.debugger import GdbLike, LldbLike
from repro.pipeline import fold_results, run_campaign
from repro.report.model import load_artifact
from repro.store import CampaignStore

SEEDS = 30
POOL_SMALL = 8


@pytest.fixture(scope="module")
def gcc_bundle():
    campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                            pool_size=SEEDS)
    return campaign, run_bisect_campaign(campaign)


@pytest.fixture(scope="module")
def clang_bundle():
    campaign = run_campaign(Compiler("clang", "trunk"), LldbLike(),
                            pool_size=SEEDS)
    return campaign, run_bisect_campaign(campaign)


@pytest.fixture(scope="module", params=["gcc", "clang"])
def bundle(request):
    return request.getfixturevalue(f"{request.param}_bundle")


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                        pool_size=POOL_SMALL)


@pytest.fixture(scope="module")
def small_bisect(small_campaign):
    return run_bisect_campaign(small_campaign)


@pytest.fixture
def compile_counter(monkeypatch):
    calls = {"count": 0}
    real = Compiler.compile_ir

    def counting(self, *args, **kwargs):
        calls["count"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Compiler, "compile_ir", counting)
    return calls


# -- bisect_defect unit behaviour ---------------------------------------------


def _window(first_bad, fixed_in):
    """A synthetic firing predicate for the interval [first_bad, fixed_in)."""
    def fires(index):
        if index < first_bad:
            return False
        return fixed_in is None or index < fixed_in
    return fires


AXIS = tuple(range(6))


def test_bisect_anchored_interior_window():
    out = bisect_defect(_window(2, 4), AXIS, anchor=3)
    assert (out.last_good, out.first_bad, out.fixed_in) == (1, 2, 4)


def test_bisect_segment_scan_finds_interior_window():
    # The non-monotone case: good versions on both sides, no anchor.
    out = bisect_defect(_window(2, 4), AXIS)
    assert (out.last_good, out.first_bad, out.fixed_in) == (1, 2, 4)
    # The scan walked oldest-first up to the first firing version.
    assert out.consulted[:3] == (0, 1, 2)


def test_bisect_never_fires_is_all_none():
    out = bisect_defect(_window(99, None), AXIS)
    assert (out.last_good, out.first_bad, out.fixed_in) == (None,) * 3
    assert out.consulted == AXIS  # exhaustive scan before giving up


def test_bisect_fires_everywhere():
    out = bisect_defect(_window(0, None), AXIS, anchor=0)
    assert (out.last_good, out.first_bad, out.fixed_in) == (None, 0, None)


def test_bisect_disowned_anchor_falls_back_to_scan():
    # A full-compile firing that does not reproduce under the isolated
    # predicate: the anchor is verified, disowned, and the anchorless
    # path still finds the true window.
    out = bisect_defect(_window(4, 5), AXIS, anchor=1)
    assert (out.last_good, out.first_bad, out.fixed_in) == (3, 4, 5)
    assert out.consulted[0] == 1  # the anchor was probed first


def test_bisect_sparse_support_axis():
    out = bisect_defect(_window(3, 5), (2, 3, 4, 5), anchor=4)
    assert (out.last_good, out.first_bad, out.fixed_in) == (2, 3, 5)


def test_bisect_probe_economy():
    # Anchored search: one verify + two binary searches, and `consulted`
    # counts each distinct version exactly once.
    calls = []

    def fires(index):
        calls.append(index)
        return _window(2, 4)(index)

    out = bisect_defect(fires, AXIS, anchor=2)
    assert sorted(out.consulted) == sorted(set(out.consulted))
    assert set(calls) == set(out.consulted)
    bound = 1 + 2 * math.ceil(math.log2(len(AXIS)))
    assert len(out.consulted) <= min(len(AXIS), bound)


# -- support axis and catalog ground truth ------------------------------------


def test_pass_support_clips_to_scheduling():
    # gcc grew tree-vrp in version index 2, ivopts in 1.
    assert pass_support("gcc", "O2", "tree-vrp") == (2, 3, 4, 5)
    assert pass_support("gcc", "O2", "ivopts") == (1, 2, 3, 4, 5)
    # clang -Og runs the unroller only from index 4 on.
    assert pass_support("clang", "Og", "unroll") == (4, 5)
    # A real pass absent from this level's pipeline in every version:
    # the defect is unobservable here (gcc unrolls only at -O3/-Oz).
    assert pass_support("gcc", "O2", "unroll") == ()
    assert pass_support("gcc", "Og", "inline") == ()
    # A hook stage that is not a pipeline pass anywhere is supported
    # everywhere, as is -O0 (no pipeline at all).
    assert pass_support("gcc", "O2", "codegen") == tuple(range(6))
    assert pass_support("gcc", "O0", "tree-vrp") == tuple(range(6))
    # clang's O1 aliases to Og.
    assert pass_support("clang", "O1", "sroa") == \
        pass_support("clang", "Og", "sroa")


def test_expected_window_historical_exemplars():
    clang = {d.defect_id: d for d in defects_for_family("clang")}
    # The clang 5->7 -Og/-Os regression: introduced mid-axis.
    out = expected_window(clang["clang-hist-og-regression"], "clang", "Og")
    assert (out.last_good, out.first_bad, out.fixed_in) == (0, 1, 3)
    # Inactive off its levels.
    out = expected_window(clang["clang-hist-og-regression"], "clang", "O2")
    assert out == BisectOutcome()
    out = expected_window(clang["clang-hist-ccp"], "clang", "O2")
    assert (out.last_good, out.first_bad, out.fixed_in) == (None, 0, 2)
    gcc = {d.defect_id: d for d in defects_for_family("gcc")}
    out = expected_window(gcc["gcc-hist-v8-regression"], "gcc", "O3")
    assert (out.last_good, out.first_bad, out.fixed_in) == (1, 2, 3)


def test_family_versions_axis():
    assert len(family_versions("gcc")) == len(family_versions("clang")) == 6
    with pytest.raises(ValueError):
        family_versions("msvc")


# -- the 30-seed differential suite -------------------------------------------


def test_bisected_windows_match_catalog(bundle):
    campaign, result = bundle
    family = campaign.family
    catalog = {d.defect_id: d for d in defects_for_family(family)}
    assert result.records and result.witnesses > 0
    fired = [r for r in result.records if r.fired]
    assert len(fired) >= 50           # breadth: the axis story is rich
    assert len(result.defects_seen()) >= 5
    for record in fired:
        defect = catalog[record.defect]
        want = expected_window(defect, family, record.level)
        got = (record.last_good, record.first_bad, record.fixed_in)
        assert got == (want.last_good, want.first_bad, want.fixed_in), \
            (record.seed, record.level, record.defect, got, want)
        # The record's static columns echo the catalog claim verbatim.
        assert record.introduced == defect.introduced
        assert record.catalog_fixed_in == defect.fixed_in
    # Records that never fired in isolation must be interference-only
    # defects (masked), and they are rare — never a wrong window.
    masked = [r for r in result.records if not r.fired and
              expected_window(catalog[r.defect], family,
                              r.level).first_bad is not None]
    assert len(masked) <= len(result.records) // 25 + 1


def test_probe_counts_bounded(bundle):
    campaign, result = bundle
    axis = len(family_versions(campaign.family))
    log_bound = 1 + 2 * math.ceil(math.log2(axis))
    for record in result.records:
        # Distinct versions consulted never exceed the support axis
        # (the segment-scan worst case) ...
        assert record.probes <= len(record.supported)
        if record.fired and record.origin == "witness":
            # ... and an anchored search stays within verify + two
            # binary searches.
            assert record.probes <= min(len(record.supported), log_bound)
    stats = result.stats
    assert stats["consults"] == stats["probes"] + stats["memo_hits"]
    assert stats["memo_hits"] > 0     # bisection amortizes across defects
    assert stats["probes"] <= stats["consults"]


#: Seeds for the isolated-probe exactness pin (kept small: every active
#: (level, version, defect) triple costs one reference compile).
EXACT_SEEDS = (0, 1, 2)


@pytest.mark.parametrize("family", ["gcc", "clang"])
def test_isolated_probes_equal_single_defect_compiles(family,
                                                      compile_counter):
    # An isolated probe is read off the defect-free compile's query log;
    # the reference compiles with the one defect active.  Every version
    # and every catalog defect of the family, at the levels that matter.
    levels = ("Og", "O1", "O2", "O3") if family == "gcc" \
        else ("Og", "O2", "O3")
    catalog = defects_for_family(family)
    fired = 0
    for seed in EXACT_SEEDS:
        prober = VersionProber(family, seed)
        session = prober.session
        consults = 0
        for level in levels:
            for index, version in enumerate(family_versions(family)):
                for defect in catalog:
                    before = compile_counter["count"]
                    got = prober.isolated_fired(index, level, defect)
                    consults += 1
                    if not (defect.active_in_version(index)
                            and defect.active_at_level(level)):
                        # Inactive pairs answer without a compile.
                        assert got is False
                        assert compile_counter["count"] == before
                        continue
                    reference = Compiler(family, version)
                    reference.defects = [defect]
                    want = defect.defect_id in reference.compile_ir(
                        session.ir_module(), level,
                        program_token=session.program_token
                    ).fired_defects()
                    assert got == want, (seed, level, version,
                                         defect.defect_id)
                    fired += want
        # Each consult is a probe (it compiled a log) or a memo hit.
        assert prober.probes == len(prober._logs)
        assert prober.probes + prober.memo_hits == consults
    assert fired >= 20      # the pin is not vacuous


def test_non_monotone_window_bisected_from_middle_anchor():
    # Anchor a campaign *inside* the clang 5->7 -Og/-Os regression
    # window (version "7" = index 1): first-bad and fixed-in both lie
    # strictly inside the axis, so a naive newest-vs-oldest split would
    # see "good" on both ends.
    campaign = run_campaign(Compiler("clang", "7"), LldbLike(),
                            pool_size=12, levels=["Og", "Os"])
    result = run_bisect_campaign(campaign)
    records = [r for r in result.records
               if r.defect == "clang-hist-og-regression" and r.fired]
    assert records
    for record in records:
        assert (record.last_good, record.first_bad,
                record.fixed_in) == (0, 1, 3)


def test_requested_defect_probed_without_anchor():
    # gcc-hist-dce has no selector (it fires for every program DCE
    # touches), so every witness's requested probe must reproduce its
    # catalog window exactly — anchorless, since a requested defect
    # carries no witness anchor.
    campaign = run_campaign(Compiler("gcc", "trunk"), GdbLike(),
                            pool_size=8, levels=["O3"])
    result = run_bisect_campaign(campaign, discover=False,
                                 defects=("gcc-hist-dce",))
    records = [r for r in result.records if r.defect == "gcc-hist-dce"]
    assert records and all(r.origin == "probe" for r in records)
    for record in records:
        assert (record.last_good, record.first_bad,
                record.fixed_in) == (None, 0, 3)


def test_requested_unknown_defect_rejected(small_campaign):
    with pytest.raises(ValueError, match="unknown gcc defect"):
        run_bisect_campaign(small_campaign, defects=("no-such-defect",))


# -- store resume -------------------------------------------------------------


def test_store_resume_bit_identical_zero_recompiles(
        tmp_path, small_campaign, small_bisect, compile_counter):
    db = str(tmp_path / "bisect.sqlite")
    reference = small_bisect.to_json(indent=2)
    with CampaignStore(db) as store:
        first = run_bisect_campaign(small_campaign, store=store)
        assert store.stats.misses == first.witnesses
    assert first.to_json(indent=2) == reference
    before = compile_counter["count"]
    with CampaignStore(db) as store:
        resumed = run_bisect_campaign(small_campaign, store=store)
        assert store.stats.hits == first.witnesses
        run = store.run_id(BISECT_SCHEMA, small_campaign.family,
                           small_campaign.version, ())
        replayed = store.load_run(run)
    assert compile_counter["count"] == before   # zero recompiles
    assert resumed.to_json(indent=2) == reference
    assert replayed.to_json(indent=2) == reference


# -- artifact algebra and serialization ---------------------------------------


def test_merge_bisect_results_folds(small_bisect):
    half = len(small_bisect.records) // 2
    cut_seed = small_bisect.records[half].seed
    left = BisectCampaignResult(
        family=small_bisect.family, version=small_bisect.version,
        pool_size=0, stats=dict(small_bisect.stats),
        records=[r for r in small_bisect.records if r.seed < cut_seed])
    right = BisectCampaignResult(
        family=small_bisect.family, version=small_bisect.version,
        pool_size=small_bisect.pool_size, stats={},
        records=[r for r in small_bisect.records if r.seed >= cut_seed])
    merged = fold_results([right, left])
    assert [r.witness_key() for r in merged.records] == \
        [r.witness_key() for r in small_bisect.records]
    assert merged.stats == small_bisect.stats
    assert fold_results([small_bisect]) is small_bisect
    with pytest.raises(ValueError):
        fold_results([])


def test_witness_fingerprint_stable():
    one = witness_fingerprint("abc", "O2", "line_table", "x")
    two = witness_fingerprint("abc", "O2", "line_table", "x")
    assert one == two and len(one) == 16
    assert one != witness_fingerprint("abc", "O2", "line_table", "y")


def test_record_round_trip():
    record = BisectRecord(seed=3, level="O2", conjecture="c", variable="v",
                          defect="d", origin="witness", last_good=None,
                          first_bad=0, fixed_in=2, introduced=0,
                          catalog_fixed_in=2, supported=[0, 1, 2],
                          probes=3)
    assert BisectRecord.from_dict(record.to_dict()) == record
    with pytest.raises(ValueError):
        BisectRecord.from_dict({"seed": 3})


# -- report and CLI surface ---------------------------------------------------


def test_bisect_table_ground_truth_classes(small_bisect):
    from repro.report import bisect_table, render
    table = bisect_table(small_bisect)
    assert table.kind == "bisect"
    assert len(table.rows) == len(small_bisect.records)
    classes = {row[table.columns.index("class")] for row in table.rows}
    assert classes <= {"match", "clipped", "inactive", "masked"}
    text = render(table, "text")
    assert "first-bad" in text and "catalog" in text


def test_manifest_includes_bisect_deliverable(small_bisect):
    from repro.report.manifest import deliverables_for, describe_artifact
    names = [name for name, _tables in deliverables_for(small_bisect)]
    assert names[0] == "bisect"
    description = describe_artifact(small_bisect)
    assert description["schema"] == BISECT_SCHEMA
    assert description["witnesses"] == small_bisect.witnesses


def test_report_cli_renders_bisect(tmp_path, small_bisect, capsys):
    from repro.report.cli import main as report_main
    path = tmp_path / "bisect.json"
    path.write_text(small_bisect.to_json(indent=2))
    assert report_main(["bisect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "first-bad" in out


def test_bisect_cli_artifact_mode(tmp_path, small_campaign, small_bisect,
                                  capsys):
    from repro.bisect.cli import main as bisect_main
    campaign_path = tmp_path / "campaign.json"
    campaign_path.write_text(small_campaign.to_json(indent=2))
    out_path = tmp_path / "bisect.json"
    assert bisect_main([str(campaign_path), "--serial",
                        "--output", str(out_path)]) == 0
    assert "witnesses" in capsys.readouterr().out
    produced = load_artifact(out_path.read_text())
    assert produced.to_json(indent=2) == small_bisect.to_json(indent=2)


def test_bisect_cli_rejects_conflicting_modes(tmp_path):
    from repro.bisect.cli import main as bisect_main
    with pytest.raises(SystemExit):
        bisect_main([])                        # neither artifact nor find
    with pytest.raises(SystemExit):
        bisect_main([os.devnull, "--pool-size", "2"])   # both
