import pytest

from repro.core.metrics import (
    ETTRAssumptions,
    run_ettr,
)
from repro.sim.timeunits import HOUR, MINUTE


def test_single_attempt_ettr_accounting():
    # First attempt loses only u0 (5 min); queue was 10 min.
    ettr = run_ettr([10 * HOUR], [600.0], ETTRAssumptions())
    assert ettr == pytest.approx((10 * HOUR - 5 * MINUTE) / (600.0 + 10 * HOUR))
    assert 0.97 < ettr < 1.0


def test_interrupted_run_pays_checkpoint_loss():
    # u0 + (u0 + dt/2) = 5m + 35m = 40 minutes unproductive.
    ettr = run_ettr([10 * HOUR, 10 * HOUR], [0.0, 0.0])
    assert ettr == pytest.approx((20 * HOUR - 40 * MINUTE) / (20 * HOUR))


def test_losses_capped_by_attempt_runtime():
    # The 1-minute second attempt loses 1 minute, not u0 + dt/2.
    ettr = run_ettr([10 * HOUR, 60.0], [0.0, 0.0])
    assert ettr == pytest.approx((10 * HOUR - 5 * MINUTE) / (10 * HOUR + 60.0))


def test_ettr_bounds():
    assert run_ettr([60.0], [0.0]) == 0.0  # 1-minute attempt swallowed by u0
    assert run_ettr([0.0], [0.0]) == 0.0  # no wallclock at all
    assert 0.0 <= run_ettr([HOUR, 2 * HOUR], [HOUR, 0.0]) <= 1.0


def test_assumption_validation():
    with pytest.raises(ValueError):
        ETTRAssumptions(checkpoint_interval=0.0)
    with pytest.raises(ValueError):
        ETTRAssumptions(restart_overhead=-1.0)
    assert ETTRAssumptions(checkpoint_interval=2 * HOUR).expected_checkpoint_loss == HOUR
