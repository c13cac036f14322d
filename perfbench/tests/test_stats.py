import statistics

import numpy as np
import pytest

from stats import percentile, quartiles, spread, tail, tail_level


@pytest.mark.parametrize(
    "n, level",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert tail_level(n) == level
    if level is not None:
        assert n * (1 - level / 100) >= 10 - 1e-9


def test_tail_reports_level_and_value():
    samples = list(range(1, 201))
    level, value = tail(samples)
    assert level == 95.0
    assert value == pytest.approx(np.percentile(samples, 95))
    assert sum(1 for s in samples if s > value) >= 10
    assert tail(samples[:19]) is None


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    samples = list(rng.exponential(size=257))
    for p in (0, 12.5, 50, 95, 99.9, 100):
        assert percentile(samples, p) == pytest.approx(np.percentile(samples, p))


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.5, 11.0, 30.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, median, q3)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert spread([4.0]) == 0.0
