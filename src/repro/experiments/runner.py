"""Rendering utilities for experiment rows.

The experiment modules return tidy rows; this module turns them into
fixed-width tables (what the CLI prints) and CSV for external
plotting.
"""

from __future__ import annotations

import io
from typing import Sequence


def render_table(
    rows: list[dict],
    columns: Sequence[str] | None = None,
    title: str | None = None,
    float_format: str = "{:.4f}",
) -> str:
    """Fixed-width text table of the given columns (default: all keys)."""
    if not rows:
        return "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: list[list[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    buf = io.StringIO()
    if title:
        buf.write(title + "\n")
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    buf.write(header + "\n")
    buf.write("  ".join("-" * w for w in widths) + "\n")
    for cells in rendered:
        buf.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + "\n")
    return buf.getvalue()


def rows_to_csv(rows: list[dict], columns: Sequence[str] | None = None) -> str:
    """Comma-separated rendering (header + rows) for plotting tools."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"
