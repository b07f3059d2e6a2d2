"""Golden-file and round-trip tests for the reporting subsystem.

Two contracts:

* **Golden rendering** — Markdown and CSV output over the stored
  ``repro-campaign/1`` fixture match ``tests/data/golden/`` byte for
  byte (HTML is smoke-parsed instead: well-nested, right cell counts);
  a golden diff means the output format changed for every consumer, so
  the fix is a deliberate golden update, not a renderer tweak.
* **CLI = library** — ``repro-report`` output is byte-identical to the
  corresponding library render, for stdout, ``-o`` files, and the
  ``all`` manifest tree.
"""

import hashlib
import json
import os
from html.parser import HTMLParser

import pytest

from repro.bugs import issues_for
from repro.metrics import StudyResult
from repro.metrics.study import ProgramMetrics
from repro.pipeline import CampaignResult, MatrixCampaignResult
from repro.report import (
    DEFAULT_FORMATS, REPORT_SCHEMA, Table, TriageSummary, fig1_table,
    fig1_tables, format_table1_text, format_venn_text, get_renderer,
    load_artifact, load_artifact_file, render, render_all, render_many,
    table1, table2, table3, table4, venn_regions, venn_table,
)
from repro.report.cli import main as report_cli
from repro.triage import TriageResult
from repro.conjectures import Violation

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURE = os.path.join(DATA, "campaign_artifact_v1.json")
GOLDEN = os.path.join(DATA, "golden")


@pytest.fixture(scope="module")
def campaign():
    return load_artifact_file(FIXTURE)


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


# -- golden files -------------------------------------------------------------


@pytest.mark.parametrize("fmt,ext", [("md", "md"), ("csv", "csv"),
                                     ("text", "txt")])
def test_table1_matches_golden(campaign, fmt, ext):
    assert render(table1(campaign), fmt) + "\n" == \
        golden(f"table1.{ext}")


@pytest.mark.parametrize("fmt,ext", [("md", "md"), ("csv", "csv"),
                                     ("text", "txt")])
def test_venn_matches_golden(campaign, fmt, ext):
    assert render(venn_table(campaign), fmt) + "\n" == \
        golden(f"venn.{ext}")


class _TableAudit(HTMLParser):
    """Minimal well-formedness audit of the self-contained HTML."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.counts = {}
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag in ("meta", "br"):
            return
        self.stack.append(tag)
        self.counts[tag] = self.counts.get(tag, 0) + 1

    def handle_endtag(self, tag):
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"misnested </{tag}> at {self.stack}")
        else:
            self.stack.pop()


def test_html_smoke_parse(campaign):
    table = table1(campaign)
    audit = _TableAudit()
    audit.feed(render(table, "html"))
    assert not audit.errors
    assert not audit.stack, f"unclosed tags: {audit.stack}"
    assert audit.counts["table"] == 1
    assert audit.counts["th"] == len(table.columns)
    assert audit.counts["td"] == len(table.rows) * len(table.columns)
    assert audit.counts["tr"] == len(table.rows) + 1  # + header row
    # Self-contained: no scripts and no external references.
    html_text = render(table, "html")
    assert "<script" not in html_text
    assert "http" not in html_text.split("</title>")[1]


def test_html_escapes_cell_content():
    table = Table(title="a<b", columns=["x & y"], rows=[["<tag>"]])
    html_text = render(table, "html")
    assert "a&lt;b" in html_text and "x &amp; y" in html_text
    assert "&lt;tag&gt;" in html_text and "<tag>" not in html_text


def test_markdown_escapes_pipes():
    table = Table(title="t", columns=["a|b"], rows=[["c|d"]])
    md = render(table, "md")
    assert "a\\|b" in md and "c\\|d" in md


# -- the Table value ----------------------------------------------------------


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="cells"):
        Table(title="t", columns=["a", "b"], rows=[[1]])


def test_table_lookup(campaign):
    table = table1(campaign)
    assert table.lookup("Og", "C3") == 2
    assert table.lookup("unique", "C1") == campaign.unique_count("C1")
    with pytest.raises(KeyError):
        table.lookup("O9", "C1")


def test_unknown_format_rejected(campaign):
    with pytest.raises(ValueError, match="unknown report format"):
        render(table1(campaign), "pdf")


# -- builders over the other artifact kinds -----------------------------------


def _study():
    study = StudyResult(pool_size=3)
    study.cells[("trunk", "O1")] = ProgramMetrics(0.5, 0.25)
    study.cells[("trunk", "Og")] = ProgramMetrics(0.875, 0.75)
    study.cells[("4", "O1")] = ProgramMetrics(0.25, 0.125)
    study.cells[("4", "Og")] = ProgramMetrics(0.5, 0.5)
    return study


def test_fig1_tables_render_cells():
    study = _study()
    panel = fig1_table(study, "availability")
    assert panel.lookup("trunk", "Og") == 0.75
    assert panel.lookup("4", "O1") == 0.125
    product = fig1_table(study, "product")
    assert product.lookup("trunk", "O1") == 0.125
    assert len(fig1_tables(study)) == 3
    assert "| 0.7500 |" in render(panel, "md")
    with pytest.raises(ValueError, match="unknown study metric"):
        fig1_table(study, "speed")


def _triage_summary():
    summary = TriageSummary(family="gcc", method="flags")
    violation = Violation(conjecture="C1", line=3, variable="x",
                          function="main", observed="optimized_out")
    summary.add(TriageResult(violation=violation, method="flags",
                             culprit_flags=["tree-ccp", "inline"]))
    summary.add(TriageResult(violation=violation, method="flags",
                             culprit_flags=["tree-ccp"]))
    summary.add(TriageResult(violation=violation, method="flags"))
    return summary


def test_triage_summary_round_trip_and_table2():
    summary = _triage_summary()
    assert summary.triaged == 2 and summary.failed == 1
    restored = TriageSummary.from_json(summary.to_json())
    assert restored == summary
    table = table2(summary)
    assert table.lookup("C1", "culprit") == "tree-ccp"
    assert table.lookup("C1", "count") == 2
    assert "2 violations triaged, 1 method failures" in table.note

    merged = summary.merge(restored)
    assert merged.counts["C1"]["tree-ccp"] == 4
    assert merged.triaged == 4 and merged.failed == 2
    with pytest.raises(ValueError, match="different runs"):
        summary.merge(TriageSummary(family="clang", method="bisect"))
    with pytest.raises(ValueError, match="not a triage artifact"):
        TriageSummary.from_json("{}")


def test_table3_filters_by_system():
    full = table3()
    assert len(full.rows) == 38
    for system in ("gcc", "clang", "gdb", "lldb"):
        assert len(table3(system=system).rows) == \
            len(issues_for(system))
    assert full.lookup("105161", "pass") == "tree-ccp"


def test_table4_over_campaigns(campaign):
    other = CampaignResult.from_dict(campaign.to_dict())
    other.version = "patched"
    table = table4([campaign, other])
    assert table.columns == ["conjecture", "gcc-trunk", "gcc-patched"]
    assert table.lookup("C1", "gcc-trunk") == \
        campaign.unique_count("C1")
    with pytest.raises(ValueError, match="at least one campaign"):
        table4([])
    # Same family-version twice: columns get numbered, not shadowed.
    twice = table4([campaign, campaign])
    assert twice.columns == ["conjecture", "gcc-trunk",
                             "gcc-trunk (2)"]


def test_study_format_table_delegates_to_report():
    study = _study()
    assert study.format_table("product") == \
        render(fig1_table(study, "product"), "text")


def test_venn_regions_order_and_conjecture_filter(campaign):
    regions = venn_regions(campaign)
    assert regions == [("Og", 3), ("O1", 1)]
    assert venn_regions(campaign, conjecture="C3") == [("Og", 2)]
    empty = venn_table(campaign, exclude=tuple(campaign.levels))
    assert render(empty, "text") == "(no unique violations)"
    # the fixed-width helpers are the text renderer over the same tables
    assert format_table1_text(campaign) == render(table1(campaign), "text")
    assert format_venn_text(campaign) == \
        render(venn_table(campaign), "text")
    assert format_venn_text(campaign, exclude=()) == \
        render(venn_table(campaign, exclude=()), "text")


# -- artifact sniffing --------------------------------------------------------


def test_load_artifact_dispatches_by_schema(campaign):
    assert isinstance(load_artifact(campaign.to_json()), CampaignResult)
    assert isinstance(load_artifact(_study().to_json()), StudyResult)
    assert isinstance(load_artifact(_triage_summary().to_json()),
                      TriageSummary)
    matrix = MatrixCampaignResult(pool_size=0)
    assert isinstance(load_artifact(matrix.to_json()),
                      MatrixCampaignResult)
    with pytest.raises(ValueError, match="unknown artifact schema"):
        load_artifact("{}")
    with pytest.raises(ValueError, match="not a repro artifact"):
        load_artifact("[1, 2]")


# -- CLI == library, byte for byte -------------------------------------------


def _cli_stdout(capsys, argv):
    assert report_cli(argv) == 0
    return capsys.readouterr().out


def test_cli_table1_matches_library(campaign, capsys):
    for fmt in ("md", "html", "csv", "text"):
        out = _cli_stdout(capsys, ["table1", FIXTURE, "--format", fmt])
        assert out == render(table1(campaign), fmt) + "\n"


def test_cli_output_file_matches_stdout(campaign, capsys, tmp_path):
    target = tmp_path / "t1.md"
    assert report_cli(["table1", FIXTURE, "-o", str(target)]) == 0
    assert target.read_text() == render(table1(campaign), "md") + "\n"


def test_cli_venn_options(campaign, capsys):
    out = _cli_stdout(capsys, ["venn", FIXTURE, "--conjecture", "C3",
                               "--format", "csv"])
    assert out == \
        render(venn_table(campaign, conjecture="C3"), "csv") + "\n"
    out = _cli_stdout(capsys, ["venn", FIXTURE, "--exclude"])
    assert out == render(venn_table(campaign, exclude=()), "md") + "\n"


def test_cli_table3_and_fig1_and_table2(campaign, capsys, tmp_path):
    assert _cli_stdout(capsys, ["table3", "-f", "csv"]) == \
        render(table3(), "csv") + "\n"

    study_path = tmp_path / "study.json"
    study_path.write_text(_study().to_json())
    out = _cli_stdout(capsys, ["fig1", str(study_path), "--metric",
                               "availability"])
    assert out == render(fig1_table(_study(), "availability"), "md") + "\n"

    triage_path = tmp_path / "triage.json"
    triage_path.write_text(_triage_summary().to_json())
    out = _cli_stdout(capsys, ["table2", str(triage_path), "-f", "text"])
    assert out == render(table2(_triage_summary()), "text") + "\n"


def test_cli_rejects_wrong_artifact_kind(tmp_path, capsys):
    study_path = tmp_path / "study.json"
    study_path.write_text(_study().to_json())
    with pytest.raises(SystemExit):
        report_cli(["table1", str(study_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        report_cli(["fig1", FIXTURE])
    capsys.readouterr()


# -- render_all / manifest ----------------------------------------------------


def test_render_all_writes_manifest_and_files(campaign, tmp_path):
    out = tmp_path / "report"
    manifest = render_all([campaign], str(out))
    stored = json.loads((out / "manifest.json").read_text())
    assert stored == manifest
    assert manifest["schema"] == REPORT_SCHEMA
    assert manifest["formats"] == list(DEFAULT_FORMATS)
    assert manifest["sources"] == [{"schema": "repro-campaign/1",
                                    "family": "gcc",
                                    "version": "trunk", "pool_size": 5}]
    deliverables = {r["deliverable"] for r in manifest["reports"]}
    assert deliverables == {"table1", "table3", "table4", "venn",
                            "fig4"}
    for report in manifest["reports"]:
        payload = (out / report["path"]).read_bytes()
        assert len(payload) == report["bytes"]
        assert hashlib.sha256(payload).hexdigest() == report["sha256"]
    # The materialized table1.md is the library render.
    assert (out / "table1.md").read_text() == \
        render(table1(campaign), "md") + "\n"


def test_render_all_is_deterministic(campaign, tmp_path):
    first = render_all([campaign], str(tmp_path / "a"))
    second = render_all([campaign], str(tmp_path / "b"))
    assert first == second
    for report in first["reports"]:
        assert (tmp_path / "a" / report["path"]).read_bytes() == \
            (tmp_path / "b" / report["path"]).read_bytes()


def test_cli_all_matches_render_all(campaign, tmp_path, capsys):
    out = tmp_path / "cli"
    lib = tmp_path / "lib"
    assert report_cli(["all", str(out), "--from", FIXTURE,
                       "--quiet"]) == 0
    manifest = render_all([campaign], str(lib))
    assert json.loads((out / "manifest.json").read_text()) == manifest
    for report in manifest["reports"]:
        assert (out / report["path"]).read_bytes() == \
            (lib / report["path"]).read_bytes()


def test_cli_all_renders_every_deliverable(tmp_path, capsys):
    """The acceptance path: campaign + study + triage fixtures feed
    Table 1-4, Venn, Figure 1 summaries, and Figure 4 in md/html/csv."""
    out = tmp_path / "full"
    assert report_cli([
        "all", str(out),
        "--from", FIXTURE,
        "--from", os.path.join(DATA, "study_artifact_v1.json"),
        "--from", os.path.join(DATA, "triage_artifact_v1.json"),
        "--quiet",
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    produced = {(r["deliverable"], r["format"])
                for r in manifest["reports"]}
    expected = {(d, f)
                for d in ("table1", "table2", "table3", "table4",
                          "fig1", "venn", "fig4")
                for f in ("md", "html", "csv")}
    assert produced == expected
    for report in manifest["reports"]:
        payload = (out / report["path"]).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == report["sha256"]
    # Spot-check content made it through: study grid and culprits.
    assert "availability" in (out / "fig1.md").read_text()
    assert "tree-ccp" in (out / "table2.csv").read_text()


def test_cli_all_requires_sources(tmp_path, capsys):
    with pytest.raises(SystemExit):
        report_cli(["all", str(tmp_path / "x")])
    capsys.readouterr()


def test_render_all_study_and_formats(tmp_path):
    manifest = render_all([_study()], str(tmp_path), formats=("md",),
                          include_catalog=False)
    assert [r["deliverable"] for r in manifest["reports"]] == ["fig1"]
    text = (tmp_path / "fig1.md").read_text()
    assert text == render_many(
        fig1_tables(_study()), "md",
        title="Figure 1 — quantitative study") + "\n"


# -- repro-campaign integration ----------------------------------------------


def test_campaign_cli_report_flag(tmp_path, capsys):
    from repro.pipeline.cli import main as campaign_cli
    out_dir = tmp_path / "report"
    artifact = tmp_path / "campaign.json"
    assert campaign_cli([
        "--family", "gcc", "--pool-size", "2", "--serial", "--quiet",
        "--output", str(artifact), "--report", str(out_dir),
        "--report-formats", "md",
    ]) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["schema"] == REPORT_SCHEMA
    stored = load_artifact_file(str(artifact))
    assert (out_dir / "table1.md").read_text() == \
        render(table1(stored), "md") + "\n"
