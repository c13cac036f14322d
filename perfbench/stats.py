"""Order statistics for benchmark samples (stdlib only).

The open-loop client imports this module too, so it must not pull in
numpy or the ``repro`` package.
"""

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail levels, highest first, in tenths of a percent.
TAIL_LEVELS_PERMILLE = (999, 990, 950, 900, 750, 500)

#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolated linearly (numpy's default)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_level(n: int) -> Optional[float]:
    """Highest percentile with at least ``MIN_BEYOND`` of ``n`` samples
    beyond it, or None when ``n`` is too small for any candidate level."""
    for permille in TAIL_LEVELS_PERMILLE:
        # n * (1 - p) >= MIN_BEYOND, in integers to dodge float rounding.
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille / 10.0
    return None


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(level, value)`` of the highest well-supported percentile."""
    level = tail_level(len(samples))
    if level is None:
        return None
    return level, percentile(samples, level)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
