"""Plain-text rendering of experiment results (paper-style tables and bars)."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Render rows as a fixed-width text table.

    Numbers are formatted compactly (3 significant digits for floats), so
    the same table renders byte-identically for identical results; the
    paper-figure checks in ``benchmarks/`` compare it against the committed
    ``benchmarks/results`` files.
    """
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in rendered_rows)
    return "\n".join(out)


def format_speedup_rows(summaries, title: str = "") -> str:
    """Render per-network geomean speedups (the GEOMEAN groups of Fig. 6/9/10)."""
    headers = ["network", "Random", "Timeloop Hybrid", "CoSA", "CoSA vs Hybrid"]
    rows = []
    for summary in summaries:
        rows.append(
            [
                summary.label,
                1.0,
                summary.hybrid_geomean,
                summary.cosa_geomean,
                summary.cosa_vs_hybrid,
            ]
        )
    return format_table(headers, rows, title=title)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3g}"
    return str(value)
