"""Summary statistics for the benchmark's timing samples."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least MIN_BEYOND samples rank above
# it, so a tail is never read off a handful of values.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q`` percentile, or None when fewer than
    ``MIN_BEYOND`` samples rank above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(samples) -> float:
    return float(statistics.median(samples))


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
