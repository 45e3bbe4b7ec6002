"""Order statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import statistics

# the tail percentile reported is the highest one with at least this many
# samples beyond it
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that has at
    least TAIL_BEYOND samples above it. With too few samples for that, the
    maximum is returned with percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
