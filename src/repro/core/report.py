"""Text renderers: turn experiment data into paper-style tables and
ASCII figure series.

Every experiment module in :mod:`repro.experiments` returns plain data
structures; these helpers render them the way the paper prints them, so a
benchmark run's console output can be compared to the paper side by side.
"""

from __future__ import annotations


def render_table(headers, rows, title: str = "") -> str:
    """Monospace table with auto-sized columns."""
    if not headers:
        raise ValueError("need at least one column")
    cells = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")

    def fmt(row):
        return "  ".join(value.ljust(width) for value, width in zip(row, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(cells[0]))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt(row) for row in cells[1:])
    return "\n".join(lines)


def render_series(name: str, xs, ys, x_label: str = "x", y_fmt: str = "{:.1f}") -> str:
    """One figure series as an aligned x->y listing."""
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    pairs = "  ".join(
        f"{x}:{y_fmt.format(y) if y is not None else 'OOM'}" for x, y in zip(xs, ys)
    )
    return f"{name:28s} {x_label}-> {pairs}"


def render_bar_chart(title: str, labels, values, width: int = 40, unit: str = "") -> str:
    """ASCII horizontal bar chart (used for Figs. 7 and 10)."""
    if len(labels) != len(values):
        raise ValueError("labels and values differ in length")
    peak = max(values) if values else 1.0
    lines = [title]
    label_width = max((len(str(label)) for label in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(width * value / peak))) if peak > 0 else ""
        lines.append(f"{str(label).ljust(label_width)}  {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def render_stacked_memory(title: str, profiles) -> str:
    """Fig. 9-style memory breakdown listing for a batch sweep."""
    lines = [title]
    for profile in profiles:
        lines.append("  " + profile.format_row())
    return "\n".join(lines)
