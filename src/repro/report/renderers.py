"""Output backends for :class:`~repro.report.table.Table` values.

Every deliverable renders through the same :class:`Renderer` protocol:

* :class:`MarkdownRenderer` (``md``) — GitHub-flavored pipe tables;
* :class:`HtmlRenderer` (``html``) — one self-contained document per
  render, inline CSS, no external assets or scripts;
* :class:`CsvRenderer` (``csv``) — RFC-4180 rows via :mod:`csv`, one
  ``# title`` comment line per table so multi-table files stay
  splittable;
* :class:`TextRenderer` (``text``) — the fixed-width console format of
  the ``repro-campaign`` summary output (pinned byte for byte by the
  golden files under ``tests/data``).

Pick one with :func:`get_renderer` or go straight through
:func:`render` / :func:`render_many`. All four are deterministic pure
functions of the table value — no timestamps, locale, or environment
leak into the output — which is what makes golden-file testing and the
byte-for-byte CLI-vs-library guarantee possible
(``tests/test_report.py``).

>>> from repro.report import Table, render
>>> t = Table(title="demo", columns=["level", "C1"], rows=[["O2", 3]])
>>> print(render(t, "md"))
## demo
<BLANKLINE>
| level | C1 |
| --- | ---: |
| O2 | 3 |
"""

from __future__ import annotations

import csv
import html
import io
from typing import Dict, Iterable, List, Optional, Sequence

from .table import Cell, Table, format_cell

#: The formats ``repro-report all`` materializes by default.
DEFAULT_FORMATS = ("md", "html", "csv")


def _is_numeric(cell: Cell) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def _numeric_columns(table: Table) -> List[bool]:
    """True per column when every body cell in it is numeric."""
    flags = []
    for index in range(len(table.columns)):
        cells = [row[index] for row in table.rows]
        flags.append(bool(cells) and all(_is_numeric(c) for c in cells))
    return flags


class Renderer:
    """Protocol: one output format for report tables."""

    #: Format key used by ``--format`` and manifest entries.
    format = "abstract"
    #: File extension (without dot) for materialized reports.
    extension = "txt"

    def render(self, table: Table) -> str:
        """One table as a complete document in this format."""
        raise NotImplementedError

    def render_many(self, tables: Sequence[Table],
                    title: Optional[str] = None) -> str:
        """Several tables as one document (e.g. per-cell matrix output)."""
        return "\n\n".join(self.render(t) for t in tables)


class MarkdownRenderer(Renderer):
    format = "md"
    extension = "md"

    @staticmethod
    def _escape(text: str) -> str:
        return text.replace("\\", "\\\\").replace("|", "\\|")

    def render(self, table: Table) -> str:
        numeric = _numeric_columns(table)
        lines = [f"## {table.title}", ""]
        if table.note:
            lines += [f"*{table.note}*", ""]
        header = " | ".join(self._escape(c) for c in table.columns)
        rule = " | ".join("---:" if num else "---" for num in numeric)
        lines.append(f"| {header} |")
        lines.append(f"| {rule} |")
        for row in table.formatted_rows():
            lines.append(
                "| " + " | ".join(self._escape(c) for c in row) + " |")
        return "\n".join(lines)

    def render_many(self, tables: Sequence[Table],
                    title: Optional[str] = None) -> str:
        parts = [f"# {title}"] if title else []
        parts.extend(self.render(t) for t in tables)
        return "\n\n".join(parts)


_HTML_STYLE = """\
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
p.note { color: #555; font-style: italic; }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { border: 1px solid #bbb; padding: 0.25rem 0.6rem; }
th { background: #f0f0f0; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }\
"""


class HtmlRenderer(Renderer):
    """Self-contained HTML: inline CSS, no scripts, no external assets."""

    format = "html"
    extension = "html"

    def _section(self, table: Table) -> List[str]:
        numeric = _numeric_columns(table)
        lines = ["<section>", f"<h2>{html.escape(table.title)}</h2>"]
        if table.note:
            lines.append(f'<p class="note">{html.escape(table.note)}</p>')
        lines.append("<table>")
        lines.append(
            "<thead><tr>" +
            "".join(f"<th>{html.escape(c)}</th>" for c in table.columns) +
            "</tr></thead>")
        lines.append("<tbody>")
        for raw, row in zip(table.rows, table.formatted_rows()):
            cells = []
            for cell, text in zip(raw, row):
                css = ' class="num"' if _is_numeric(cell) else ""
                cells.append(f"<td{css}>{html.escape(text)}</td>")
            lines.append("<tr>" + "".join(cells) + "</tr>")
        lines.append("</tbody></table>")
        lines.append("</section>")
        return lines

    def render_many(self, tables: Sequence[Table],
                    title: Optional[str] = None) -> str:
        doc_title = title or (tables[0].title if tables else "report")
        lines = [
            "<!DOCTYPE html>",
            '<html lang="en">',
            "<head>",
            '<meta charset="utf-8">',
            f"<title>{html.escape(doc_title)}</title>",
            f"<style>\n{_HTML_STYLE}\n</style>",
            "</head>",
            "<body>",
            f"<h1>{html.escape(doc_title)}</h1>",
        ]
        for table in tables:
            lines.extend(self._section(table))
        lines += ["</body>", "</html>"]
        return "\n".join(lines)

    def render(self, table: Table) -> str:
        return self.render_many([table])


class CsvRenderer(Renderer):
    format = "csv"
    extension = "csv"

    def render(self, table: Table) -> str:
        buffer = io.StringIO()
        # The title line is written raw, not through csv.writer: commas
        # in a title would make the writer quote the row and the line
        # would no longer start with "#" for comment-skipping readers.
        buffer.write(f"# {table.title}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(table.formatted_rows())
        return buffer.getvalue().rstrip("\n")

    def render_many(self, tables: Sequence[Table],
                    title: Optional[str] = None) -> str:
        return "\n\n".join(self.render(t) for t in tables)


class TextRenderer(Renderer):
    """Fixed-width console text (the legacy ``format_*`` look)."""

    format = "text"
    extension = "txt"

    def render(self, table: Table) -> str:
        if not table.rows and table.empty_text:
            return table.empty_text
        formatted = table.formatted_rows()
        if table.text_widths is not None:
            widths = list(table.text_widths)
        else:
            widths = [len(c) if table.text_header else 0
                      for c in table.columns]
            for row in formatted:
                widths = [max(w, len(cell))
                          for w, cell in zip(widths, row)]
        lines = []
        if table.text_header:
            lines.append("  ".join(
                f"{c:>{w}}" for c, w in zip(table.columns, widths)))
        for row in formatted:
            lines.append("  ".join(
                f"{cell:>{w}}" for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def render_many(self, tables: Sequence[Table],
                    title: Optional[str] = None) -> str:
        # Like every renderer, a single table needs no banner; with
        # several, each gets a "== title ==" separator line.
        if len(tables) == 1:
            return self.render(tables[0])
        parts = []
        for table in tables:
            parts.append(f"== {table.title} ==")
            parts.append(self.render(table))
            parts.append("")
        return "\n".join(parts).rstrip()


#: Singleton registry; formats are stateless so instances are shared.
RENDERERS: Dict[str, Renderer] = {}
for _renderer in (MarkdownRenderer(), HtmlRenderer(), CsvRenderer(),
                  TextRenderer()):
    RENDERERS[_renderer.format] = _renderer
RENDERERS["markdown"] = RENDERERS["md"]
RENDERERS["txt"] = RENDERERS["text"]


def get_renderer(fmt: str) -> Renderer:
    try:
        return RENDERERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown report format {fmt!r} "
            f"(known: {', '.join(sorted(RENDERERS))})") from None


def render(table: Table, fmt: str = "md") -> str:
    """One table in one format — the one-call entry point."""
    return get_renderer(fmt).render(table)


def render_many(tables: Iterable[Table], fmt: str = "md",
                title: Optional[str] = None) -> str:
    return get_renderer(fmt).render_many(list(tables), title=title)
