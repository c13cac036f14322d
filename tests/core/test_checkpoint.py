import pytest

from repro.core.checkpoint import (
    ettr_checkpoint_grid,
    required_checkpoint_interval,
)
from repro.core.ettr import ETTRParameters, expected_ettr_simple
from repro.sim.timeunits import HOUR, MINUTE


def test_paper_7_minute_requirement_at_rsc1_rate():
    """Fig. 10: ~7 min checkpointing for ETTR 0.5 at 100k GPUs, RSC-1 rate."""
    dt = required_checkpoint_interval(
        0.5, n_nodes=12_500, failure_rate_per_node_day=6.5e-3
    )
    assert dt / MINUTE == pytest.approx(7.7, abs=1.5)


def test_rsc2_rate_relaxes_requirement():
    rsc1 = required_checkpoint_interval(0.5, 12_500, 6.5e-3)
    rsc2 = required_checkpoint_interval(0.5, 12_500, 2.34e-3)
    assert rsc2 > 2.5 * rsc1  # rate ratio ~2.8x


def test_ettr_09_at_rsc2_needs_minutes_scale_checkpointing():
    """Fig. 10's callout: ETTR 0.9 at RSC-2 rates needs ~2-minute restart
    overhead and single-digit-minute checkpointing."""
    dt = required_checkpoint_interval(
        0.9, 12_500, 2.34e-3, restart_overhead=2 * MINUTE
    )
    assert MINUTE < dt < 10 * MINUTE


def test_solution_achieves_target_when_plugged_back():
    dt = required_checkpoint_interval(0.8, 2000, 6.5e-3)
    params = ETTRParameters(
        n_nodes=2000,
        failure_rate_per_node_day=6.5e-3,
        checkpoint_interval=dt,
        restart_overhead=5 * MINUTE,
    )
    assert expected_ettr_simple(params) == pytest.approx(0.8, abs=1e-6)


def test_unreachable_target_raises():
    # Restart overhead alone exceeds the budget at extreme scale/target.
    with pytest.raises(ValueError, match="unreachable"):
        required_checkpoint_interval(
            0.99, 100_000, 6.5e-3, restart_overhead=10 * MINUTE
        )


def test_zero_failure_rate_allows_any_interval():
    assert required_checkpoint_interval(0.9, 1000, 0.0) == float("inf")


def test_grid_monotone_in_both_axes():
    grid = ettr_checkpoint_grid(
        [2.34e-3, 6.5e-3], [5 * MINUTE, HOUR], n_gpus=100_000
    )
    assert grid[(2.34e-3, 5 * MINUTE)] > grid[(2.34e-3, HOUR)]
    assert grid[(2.34e-3, 5 * MINUTE)] > grid[(6.5e-3, 5 * MINUTE)]
    for value in grid.values():
        assert 0.0 <= value <= 1.0


def test_hourly_checkpointing_untenable_at_100k():
    """The paper: at 100k GPUs and RSC-1-like rates (MTTF ~15 min), an hour
    between checkpoints means no forward progress."""
    grid = ettr_checkpoint_grid([6.5e-3], [HOUR], n_gpus=100_000)
    assert grid[(6.5e-3, HOUR)] == 0.0


def test_target_validation():
    with pytest.raises(ValueError):
        required_checkpoint_interval(1.0, 1000, 1e-3)
    with pytest.raises(ValueError):
        required_checkpoint_interval(0.0, 1000, 1e-3)
