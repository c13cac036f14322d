"""Empirical CDFs and power-of-two size buckets.

These back Fig. 11 (lemon-signal CDFs) and the job-size bucketing used
throughout.
"""

from typing import Sequence, Tuple

import numpy as np


def ecdf(samples: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, cumulative_fraction)`` of an empirical CDF.

    The fractions are right-continuous: ``frac[i]`` is the fraction of
    samples ``<= values[i]``.
    """
    arr = np.sort(np.asarray(list(samples), dtype=float))
    if arr.size == 0:
        raise ValueError("cannot build an ECDF from an empty sample")
    frac = np.arange(1, arr.size + 1, dtype=float) / arr.size
    return arr, frac


def power_of_two_bucket(value: float, minimum: int = 1) -> int:
    """Round ``value`` up to the next power of two, at least ``minimum``.

    The paper buckets job sizes by GPU count at powers of two (1, 2, 4, ...,
    4096); sizes are first rounded up to the next multiple of 8 GPUs for the
    node-level analyses.
    """
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    bucket = minimum
    while bucket < value:
        bucket *= 2
    return bucket
