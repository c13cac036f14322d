import numpy as np
import pytest

from repro.core.ettr import (
    ETTRParameters,
    dedicated_cluster_scenario,
    expected_ettr,
    expected_ettr_simple,
    expected_failures,
    expected_slowdown,
    monte_carlo_ettr,
)
from repro.sim.timeunits import DAY, HOUR, MINUTE


def params(**kwargs):
    defaults = dict(
        n_nodes=1000,
        failure_rate_per_node_day=6.5e-3,
        checkpoint_interval=HOUR,
        restart_overhead=5 * MINUTE,
        queue_time=MINUTE,
        productive_runtime=7 * DAY,
    )
    defaults.update(kwargs)
    return ETTRParameters(**defaults)


def test_paper_16k_gpu_scenario():
    """Section III: dedicated 16k-GPU run on RSC-1: ETTR 0.7 at 60-minute
    checkpointing, 0.93 at 5-minute checkpointing."""
    hourly = dedicated_cluster_scenario(16_000, 6.5e-3, checkpoint_interval=HOUR)
    assert expected_ettr_simple(hourly) == pytest.approx(0.70, abs=0.02)
    five_min = dedicated_cluster_scenario(
        16_000, 6.5e-3, checkpoint_interval=5 * MINUTE
    )
    assert expected_ettr_simple(five_min) == pytest.approx(0.93, abs=0.01)


def test_full_model_within_5pct_of_monte_carlo():
    """The paper: the closed form is accurate to ~5% even for 8k-GPU jobs."""
    p = params()
    analytic = expected_ettr(p)
    mc = monte_carlo_ettr(p, n_trials=400, rng=np.random.default_rng(0))
    assert abs(analytic - mc) / mc < 0.05


def test_simple_model_close_to_full_model_when_queue_negligible():
    p = params(queue_time=1.0)
    assert expected_ettr(p) == pytest.approx(expected_ettr_simple(p), abs=0.02)


def test_ettr_decreases_with_scale():
    small = expected_ettr_simple(params(n_nodes=100))
    large = expected_ettr_simple(params(n_nodes=10_000))
    assert large < small


def test_ettr_improves_with_frequent_checkpoints():
    slow = expected_ettr_simple(params(checkpoint_interval=2 * HOUR))
    fast = expected_ettr_simple(params(checkpoint_interval=5 * MINUTE))
    assert fast > slow


def test_ettr_degrades_with_queue_time():
    quick = expected_ettr(params(queue_time=MINUTE))
    slow = expected_ettr(params(queue_time=2 * HOUR))
    assert slow < quick


def test_expected_failures_matches_poisson_intuition():
    p = params(n_nodes=1000, failure_rate_per_node_day=1e-3,
               productive_runtime=10 * DAY)
    # lambda = 1/day; overheads small -> ~10 failures over a 10-day run.
    assert expected_failures(p) == pytest.approx(10.0, rel=0.05)


def test_model_invalid_when_overhead_exceeds_mttf():
    p = params(
        n_nodes=100_000,
        failure_rate_per_node_day=6.5e-3,
        checkpoint_interval=4 * HOUR,
    )
    with pytest.raises(ValueError, match="checkpoint much more often"):
        expected_failures(p)
    assert expected_ettr_simple(p) == 0.0  # clamped, not negative


def test_zero_failure_rate_gives_perfect_simple_ettr():
    p = params(failure_rate_per_node_day=0.0)
    assert expected_ettr_simple(p) == 1.0
    assert p.job_failure_rate_per_second == 0.0


def test_monte_carlo_with_zero_failures_approaches_one():
    p = params(failure_rate_per_node_day=0.0, queue_time=0.0)
    mc = monte_carlo_ettr(p, n_trials=10, rng=np.random.default_rng(1))
    # Only the one-time u0 is lost.
    expected = p.productive_runtime / (p.productive_runtime + p.restart_overhead)
    assert mc == pytest.approx(expected, rel=1e-6)


def test_slowdown_positive():
    assert expected_slowdown(params()) > 0


def test_parameter_validation():
    with pytest.raises(ValueError):
        params(n_nodes=0)
    with pytest.raises(ValueError):
        params(failure_rate_per_node_day=-1.0)
    with pytest.raises(ValueError):
        params(checkpoint_interval=0.0)
    with pytest.raises(ValueError):
        params(productive_runtime=0.0)


def test_dedicated_cluster_scenario_node_math():
    p = dedicated_cluster_scenario(100_000, 2.34e-3, checkpoint_interval=HOUR)
    assert p.n_nodes == 12_500


def test_monte_carlo_samples_distribution():
    from repro.core.ettr import monte_carlo_ettr_samples

    p = params(n_nodes=2000, productive_runtime=3 * DAY)
    samples = monte_carlo_ettr_samples(
        p, n_trials=150, rng=np.random.default_rng(2)
    )
    assert samples.shape == (150,)
    assert np.all((samples > 0) & (samples <= 1))
    lo, med, hi = np.percentile(samples, [10, 50, 90])
    assert lo < med < hi  # genuine run-to-run spread
    # Mean of samples equals the convenience wrapper for the same rng.
    assert monte_carlo_ettr(
        p, n_trials=150, rng=np.random.default_rng(2)
    ) == pytest.approx(float(samples.mean()))
