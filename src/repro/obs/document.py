"""Report documents: one list of blocks, one text writer, one HTML writer.

A report (``repro report``, ``repro population``) says what it contains
once, as an ordered list of blocks — a :class:`Title`, section
:class:`Heading` s, :class:`Line` s and :class:`Table` s — and hands the
list to :func:`write_text` or :func:`write_html`.  Every layout decision
lives here: text tables go through
:func:`repro.analysis.tables.render_table`, and the HTML writer is the
only code that writes tags.  The HTML page is a single file with inline
CSS and no external references, so a CI artifact opens anywhere.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Union

from repro.analysis.tables import render_table


@dataclass(frozen=True)
class Title:
    """The document title: underlined in text, ``<h1>`` in HTML."""

    text: str


@dataclass(frozen=True)
class Heading:
    """A section heading, set off by a blank line in text."""

    text: str


@dataclass(frozen=True)
class Line:
    """One line of prose."""

    text: str


@dataclass(frozen=True)
class Table:
    """A table; rows whose index is in ``flagged`` failed."""

    headers: Sequence[str]
    rows: Sequence[Sequence[str]]
    flagged: FrozenSet[int] = frozenset()


Block = Union[Title, Heading, Line, Table]


def write_text(blocks: Sequence[Block]) -> str:
    """Plain text: a ``=``-underlined title, blank-line-led headings."""
    lines: List[str] = []
    for block in blocks:
        if isinstance(block, Title):
            lines += [block.text, "=" * len(block.text)]
        elif isinstance(block, Heading):
            lines += ["", block.text]
        elif isinstance(block, Line):
            lines.append(block.text)
        else:
            lines.append(render_table(block.headers, block.rows))
    return "\n".join(lines) + "\n"


_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto;
       max-width: 64rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 1.6rem; }
table { border-collapse: collapse; margin: .5rem 0; width: 100%; }
th, td { border: 1px solid #d0d0d0; padding: .25rem .5rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f2f2f2; }
.bad { color: #991b1b; font-weight: 600; }
""".strip()

_TAGS = {Title: "h1", Heading: "h2", Line: "p"}


def _cells(tag: str, values: Sequence[str]) -> str:
    return "".join(f"<{tag}>{html.escape(value)}</{tag}>" for value in values)


def write_html(blocks: Sequence[Block]) -> str:
    """A self-contained page; flagged table rows get ``class="bad"``."""
    title = next((b.text for b in blocks if isinstance(b, Title)), "")
    parts = [
        "<!DOCTYPE html>",
        "<html lang=\"en\"><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
    ]
    for block in blocks:
        if isinstance(block, Table):
            parts.append(f"<table><tr>{_cells('th', block.headers)}</tr>")
            for index, row in enumerate(block.rows):
                flag = " class=\"bad\"" if index in block.flagged else ""
                parts.append(f"<tr{flag}>{_cells('td', row)}</tr>")
            parts.append("</table>")
        else:
            tag = _TAGS[type(block)]
            parts.append(f"<{tag}>{html.escape(block.text)}</{tag}>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


__all__ = ["Block", "Heading", "Line", "Table", "Title", "write_html",
           "write_text"]
