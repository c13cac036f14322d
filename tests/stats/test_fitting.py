import numpy as np
import pytest

from repro.stats.fitting import estimate_rate, rate_confidence_interval


def test_point_estimate_is_events_over_exposure():
    est = estimate_rate(10, 100.0)
    assert est.rate == pytest.approx(0.1)
    assert est.mttf == pytest.approx(10.0)


def test_interval_brackets_point_estimate():
    est = estimate_rate(25, 500.0)
    assert est.lo < est.rate < est.hi


def test_zero_events_has_zero_lower_bound():
    lo, hi = rate_confidence_interval(0, 100.0)
    assert lo == 0.0
    assert hi > 0.0


def test_interval_narrows_with_more_events():
    narrow = estimate_rate(400, 4000.0)
    wide = estimate_rate(4, 40.0)
    assert (narrow.hi - narrow.lo) < (wide.hi - wide.lo)


def test_confidence_level_widens_interval():
    c90 = estimate_rate(10, 100.0, confidence=0.90)
    c99 = estimate_rate(10, 100.0, confidence=0.99)
    assert c99.lo < c90.lo and c99.hi > c90.hi


def test_mttf_bounds_invert_rate_bounds():
    est = estimate_rate(10, 100.0)
    assert est.mttf_lo == pytest.approx(1.0 / est.hi)
    assert est.mttf_hi == pytest.approx(1.0 / est.lo)


def test_coverage_of_gamma_interval():
    """~90% of 90% intervals should contain the true rate."""
    rng = np.random.default_rng(0)
    true_rate = 0.05
    exposure = 2000.0
    hits = 0
    trials = 300
    for _ in range(trials):
        events = rng.poisson(true_rate * exposure)
        lo, hi = rate_confidence_interval(int(events), exposure)
        if lo <= true_rate <= hi:
            hits += 1
    assert 0.84 <= hits / trials <= 0.97


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        estimate_rate(-1, 10.0)
    with pytest.raises(ValueError):
        estimate_rate(1, 0.0)
    with pytest.raises(ValueError):
        estimate_rate(1, 10.0, confidence=1.5)


def test_mttf_from_rate_paper_formula():
    # MTTF = 1 / (N r): 2048 nodes (the paper's 16k GPUs) at 6.5e-3 per
    # node-day -> 1.8 hours.
    from repro.core.mttf import project_mttf

    assert project_mttf(16_384, 6.5e-3) == pytest.approx(1.80, abs=0.02)


def test_mttf_from_rate_zero_rate_is_infinite():
    from repro.core.mttf import project_mttf

    assert project_mttf(80, 0.0) == float("inf")
