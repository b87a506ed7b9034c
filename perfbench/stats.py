"""Order statistics used by the benchmark report."""

from __future__ import annotations

from collections.abc import Sequence

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (rank p/100 * (n-1) of the sorted
    values), as numpy's default method computes it.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    above it, or None when even the median has fewer.
    """
    best = None
    for p in PERCENTILE_LADDER:
        # rounded, so that 0.1% of 10000 samples reads as 10, not 9.999...
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            best = p
    return best

