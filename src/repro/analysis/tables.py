"""ASCII table formatting for the benchmark harness output.

Every benchmark prints its experiment's rows through
:func:`format_table` so EXPERIMENTS.md snippets and terminal output look
identical.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["format_table", "format_rows"]


def _fmt(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render a fixed-width ASCII table."""
    cells = [[_fmt(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_rows(
    rows: Sequence[Mapping[str, object]],
    *,
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render a list of dict rows, inferring columns from the first row."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    data = [[row.get(c, "") for c in cols] for row in rows]
    return format_table(cols, data, title=title, precision=precision)
