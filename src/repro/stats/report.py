"""Plain-text tables and simple series summaries for experiment output.

The experiment harness prints the same kind of rows the paper reports
(messages and execution time per topology / depth / distribution).  These
helpers keep the formatting in one place and depend on nothing but the
standard library.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render ``rows`` as a fixed-width text table with ``headers``."""
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def series_summary(xs: Sequence[float], ys: Sequence[float]) -> dict[str, float]:
    """Least-squares linear fit of ``ys`` against ``xs``.

    Returns slope, intercept and the coefficient of determination R²; used by
    the depth-linearity experiment (E4) to quantify the paper's "execution
    time is linear with respect to the depth" observation without pulling in
    scipy for a one-liner.
    """
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points for a linear fit")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("all x values are identical")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": slope, "intercept": intercept, "r_squared": r_squared}
