"""Trailing-window rate arithmetic of the Fig. 5 estimator on a grid."""

import numpy as np
import pytest

from repro.core.estimators import RollingFailureRateEstimator
from repro.sim.events import EventRecord


def rolling_rate(events, window, end, step, exposure_per_time=1.0):
    """``(grid, rates)`` of a batch fold over incidents at ``events``."""
    estimator = RollingFailureRateEstimator(
        window=window, step=step, exposure_per_time=exposure_per_time
    )
    for time in events:
        estimator.observe_event(
            EventRecord(float(time), "cluster.incident", "node", {})
        )
    estimator.finish(end)
    grid = np.asarray(
        [estimator.grid_time(i) for i in range(len(estimator.overall))]
    )
    return grid, estimator.overall_series()


def test_constant_rate_recovered():
    # One event per unit time over [0, 100): the trailing rate is ~1.
    events = np.arange(0.5, 100.0, 1.0)
    grid, rates = rolling_rate(events, window=10.0, end=100.0, step=5.0)
    # Grid points before one full window see a partial window.
    assert np.allclose(rates[grid >= 10.0], 1.0)


def test_exposure_normalization():
    events = np.arange(0.5, 100.0, 1.0)
    grid, rates = rolling_rate(
        events, window=10.0, end=100.0, step=10.0, exposure_per_time=4.0
    )
    assert np.allclose(rates[grid >= 10.0], 0.25)


def test_burst_shows_up_in_window():
    events = [50.0] * 20
    grid, rates = rolling_rate(events, window=10.0, end=100.0, step=1.0)
    assert rates[grid == 49.0][0] == 0.0
    assert rates[grid == 55.0][0] == pytest.approx(2.0)
    assert rates[grid == 61.0][0] == 0.0  # window has passed


def test_empty_events_zero_rate():
    grid, rates = rolling_rate([], window=5.0, end=10.0, step=1.0)
    assert len(grid) == 11
    assert np.allclose(rates, 0.0)


def test_invalid_window_raises():
    with pytest.raises(ValueError):
        rolling_rate([1.0], window=0.0, end=1.0, step=0.5)
