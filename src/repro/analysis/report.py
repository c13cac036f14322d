"""ASCII rendering of analysis results.

The reproduction report prints the same rows/series the paper's tables
and figures show; these helpers keep that output consistent and legible.
"""

from typing import Dict, List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width table (floats to four significant digits)."""

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(
    values: Dict[object, float],
    title: Optional[str] = None,
) -> str:
    """Render a horizontal bar chart (one bar per key), 50 characters
    for the largest value."""
    width = 50
    if not values:
        raise ValueError("no values to render")
    max_value = max(values.values())
    label_width = max(len(str(k)) for k in values)
    lines: List[str] = []
    if title:
        lines.append(title)
    for key, value in values.items():
        bar = "#" * (0 if max_value <= 0 else int(round(width * value / max_value)))
        lines.append(
            f"{str(key).rjust(label_width)} | {bar.ljust(width)} "
            f"{value:.3g}"
        )
    return "\n".join(lines)


def render_series(
    x: Sequence[float],
    y: Sequence[float],
    x_label: str = "x",
    y_label: str = "y",
    title: Optional[str] = None,
) -> str:
    """Render an (x, y) series as a two-column table, downsampled to
    about 40 rows."""
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    step = max(1, len(x) // 40)
    rows = [(float(x[i]), float(y[i])) for i in range(0, len(x), step)]
    return render_table([x_label, y_label], rows, title=title)
