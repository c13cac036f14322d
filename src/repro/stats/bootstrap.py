"""Bootstrap confidence intervals.

Fig. 9 shows 90% confidence intervals around mean job-run ETTR per size
bucket; we reproduce those with a nonparametric percentile bootstrap.

Resample indices are drawn in blocks of rows (:func:`_resample_blocks`)
instead of one ``integers`` call per resample.  A PCG64 ``Generator``
yields the same bounded integers whether they are drawn in one call or
in many, so the blocks hold exactly the indices the per-resample loop
drew, in the same order; and each row's mean is the same contiguous
1-D reduction ``np.mean`` performs on one resample.  The intervals are
therefore bit-identical to the loop's (see ``docs/PERFORMANCE.md``).
"""

from typing import Iterator, Sequence, Tuple

import numpy as np

#: Index elements per resample block (~0.5 MiB of int64), so a block's
#: memory stays bounded for any sample size; a sample larger than this
#: takes one resample, ``n`` elements, per block.
_BLOCK_ELEMENTS = 1 << 16


def _resample_blocks(
    n: int, n_resamples: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield ``(rows, n)`` index blocks, ``n_resamples`` rows in total.

    The one definition of the bootstrap's RNG stream: row ``i`` holds the
    indices of resample ``i``, drawn in resample order.
    """
    rows_per_block = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n_resamples, rows_per_block):
        rows = min(rows_per_block, n_resamples - start)
        yield rng.integers(0, n, size=(rows, n))


def bootstrap_mean_ci(
    samples: Sequence[float], confidence: float = 0.90
) -> Tuple[float, float, float]:
    """Percentile-bootstrap CI for the mean; returns ``(mean, lo, hi)``.

    Draws 1000 resamples from ``np.random.default_rng(0)``, so equal
    samples give equal intervals.  With fewer than two samples the
    interval degenerates to the point estimate.  Every block's means are
    taken in one reduction.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    point = float(np.mean(arr))
    if arr.size < 2:
        return point, point, point
    rng = np.random.default_rng(0)
    blocks = _resample_blocks(arr.size, 1000, rng)
    estimates = np.concatenate([arr[block].mean(axis=1) for block in blocks])
    alpha = 1.0 - confidence
    lo, hi = np.percentile(estimates, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return point, float(lo), float(hi)
