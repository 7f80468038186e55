"""Percentile, tail and geomean helpers of the end-to-end benchmark.

Percentiles use the nearest-rank rule, so every reported value is one of the
samples.  The tail is the highest percentile of :data:`TAIL_LADDER` that has
at least :data:`TAIL_MIN_BEYOND` samples beyond it; every rung sits above
the median, so a tail below the median cannot be reported, and a sample set
too small for any rung reports no tail at all.
"""

from __future__ import annotations

import math

#: Tail percentiles, highest first.  Every rung is above the median.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_MIN_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` among ``n`` samples."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile ``pct`` (0 < pct <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample set")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    return ordered[_rank(pct, len(ordered)) - 1]


def median(samples) -> float:
    """The 50th nearest-rank percentile."""
    return percentile(samples, 50.0)


def tail(samples) -> tuple[float, float, int] | None:
    """``(value, percentile, n)`` at the highest supported tail percentile.

    Returns ``None`` when no rung of :data:`TAIL_LADDER` has
    :data:`TAIL_MIN_BEYOND` samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = _rank(pct, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return ordered[rank - 1], pct, n
    return None


def geomean(values) -> float:
    """Geometric mean of positive ``values``."""
    values = list(values)
    if not values or any(value <= 0 for value in values):
        raise ValueError("geomean needs at least one value, all positive")
    return math.exp(math.fsum(math.log(value) for value in values) / len(values))
