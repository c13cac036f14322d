import numpy as np
import pytest

from repro.stats.bootstrap import bootstrap_mean_ci


def test_mean_ci_brackets_sample_mean():
    rng = np.random.default_rng(0)
    data = rng.normal(5.0, 1.0, size=200)
    mean, lo, hi = bootstrap_mean_ci(data)
    assert lo <= mean <= hi
    assert mean == pytest.approx(float(np.mean(data)))


def test_ci_width_shrinks_with_sample_size():
    rng = np.random.default_rng(1)
    small = rng.normal(0, 1, size=20)
    large = rng.normal(0, 1, size=2000)
    _, lo_s, hi_s = bootstrap_mean_ci(small)
    _, lo_l, hi_l = bootstrap_mean_ci(large)
    assert (hi_l - lo_l) < (hi_s - lo_s)


def test_single_sample_degenerates_to_point():
    mean, lo, hi = bootstrap_mean_ci([7.0])
    assert mean == lo == hi == 7.0


def test_empty_sample_raises():
    with pytest.raises(ValueError):
        bootstrap_mean_ci([])


def test_invalid_confidence_raises():
    with pytest.raises(ValueError):
        bootstrap_mean_ci([1.0, 2.0], confidence=0.0)


def test_deterministic_given_rng():
    data = list(range(50))
    a = bootstrap_mean_ci(data)
    b = bootstrap_mean_ci(data)
    assert a == b
