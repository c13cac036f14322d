"""The blocked bootstrap equals the per-resample loop, bit for bit.

``repro.stats.bootstrap`` draws resample indices in ``(rows, n)`` blocks
and takes a block's means in one reduction.  The reference below is the
module's bootstrap as it was before, one ``integers`` call and one
statistic call per resample, kept verbatim.  Over sample sizes whose
blocks do and do not divide the 1000 resamples, confidence levels and
value magnitudes, ``bootstrap_mean_ci`` must return a tuple equal to
the reference's under ``==``.  Above the block cap (where a block holds
one row) a whole-sample resample costs O(n) in the loop, so there the
index blocks themselves are checked against the loop's draws, for
resample counts that do and do not divide into whole blocks.
"""

from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.bootstrap import _resample_blocks, bootstrap_mean_ci


def reference_bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[np.ndarray], float],
    confidence: float = 0.90,
    n_resamples: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float, float]:
    """Percentile-bootstrap CI for an arbitrary statistic.

    Returns ``(point, lo, hi)``.  With fewer than two samples the interval
    degenerates to the point estimate.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    point = float(statistic(arr))
    if arr.size < 2:
        return point, point, point
    if rng is None:
        rng = np.random.default_rng(0)
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        resample = arr[rng.integers(0, arr.size, size=arr.size)]
        estimates[i] = statistic(resample)
    alpha = 1.0 - confidence
    lo, hi = np.percentile(estimates, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return point, float(lo), float(hi)


def reference_bootstrap_mean_ci(
    samples: Sequence[float],
    confidence: float = 0.90,
    n_resamples: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float, float]:
    """Percentile-bootstrap CI for the mean; returns ``(mean, lo, hi)``."""
    return reference_bootstrap_ci(
        samples, lambda a: float(np.mean(a)), confidence, n_resamples, rng
    )


#: Sizes at the edges of the block layout: 2**16 index elements per block,
#: so one row per block from 2**15 + 1 on.
EDGE_SIZES = (
    63, 64, 65, 127, 128, 129, 255, 256, 257, 655, 656, 1000, 3000,
    2**15 - 1, 2**15, 2**15 + 1, 2**16 - 1, 2**16, 2**16 + 1, 70_000,
)

#: The edges small enough for 1000 whole-sample resamples in the loop.
SMALL_EDGES = tuple(n for n in EDGE_SIZES if n <= 5000)

sizes = st.one_of(
    st.integers(min_value=1, max_value=40), st.sampled_from(SMALL_EDGES)
)
confidences = st.sampled_from((0.5, 0.8, 0.9, 0.95, 0.99))


def sample(n: int, data_seed: int, magnitude: int) -> np.ndarray:
    values = np.random.default_rng(data_seed).normal(size=n)
    return values * 10.0**magnitude


@st.composite
def cases(draw):
    n = draw(sizes)
    return (
        sample(n, draw(st.integers(0, 2**32 - 1)), draw(st.integers(-8, 8))),
        draw(confidences),
    )


@given(case=cases())
@settings(max_examples=150, deadline=None)
def test_mean_ci_equals_loop(case):
    data, confidence = case
    assert bootstrap_mean_ci(data, confidence) == (
        reference_bootstrap_mean_ci(data, confidence)
    )


@pytest.mark.parametrize("n", [2, 3, 100, 256, 2**15 + 1])
def test_default_rng_matches_loop(n):
    data = sample(n, n, 0)
    assert bootstrap_mean_ci(data) == reference_bootstrap_mean_ci(data)


def resample_counts(n: int):
    # Whole-sample resamples cost O(n) each in the reference loop.
    if n > 5000:
        return st.integers(min_value=1, max_value=4)
    return st.one_of(
        st.integers(min_value=1, max_value=40),
        st.sampled_from((999, 1000, 1001, 1537)),
    )


@st.composite
def layouts(draw):
    n = draw(st.sampled_from(EDGE_SIZES))
    return n, draw(resample_counts(n)), draw(st.integers(0, 2**32 - 1))


@given(layout=layouts())
@settings(max_examples=60, deadline=None)
def test_blocks_hold_the_loops_indices_in_order(layout):
    n, n_resamples, seed = layout
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = np.concatenate(list(_resample_blocks(n, n_resamples, ours)))
    loop = [theirs.integers(0, n, size=n) for _ in range(n_resamples)]
    assert np.array_equal(blocks, np.stack(loop))


def test_rng_is_left_where_the_loop_leaves_it():
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    list(_resample_blocks(100, 1001, ours))
    for _ in range(1001):
        theirs.integers(0, 100, size=100)
    assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)
