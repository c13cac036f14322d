import pytest

from repro.core.ettr import ETTRParameters
from repro.core.rackscale import (
    RACK_UNIT,
    RepairUnitSpec,
    SERVER_UNIT,
    capacity_in_repair_fraction,
    effective_interruption_rate,
    ettr_with_spares,
    rack_scale_mttf_hours,
    spare_exhaustion_probability,
)
from repro.sim.timeunits import HOUR, MINUTE

RF = 6.5e-3


def test_rack_unit_benches_far_more_capacity():
    server = capacity_in_repair_fraction(RF, SERVER_UNIT)
    rack = capacity_in_repair_fraction(RF, RACK_UNIT)
    assert rack > 10 * server
    assert server == pytest.approx(RF * 2.0)


def test_capacity_fraction_clamped():
    huge = RepairUnitSpec("huge", nodes_per_unit=1000, repair_days=1000.0)
    assert capacity_in_repair_fraction(RF, huge) == 1.0


def test_zero_spares_changes_nothing():
    assert effective_interruption_rate(RF, 9, 0, 3.0) == pytest.approx(RF)
    assert rack_scale_mttf_hours(16_384, RF, spares_per_rack=0) == pytest.approx(
        1.80, abs=0.02
    )


def test_spares_thin_the_interruption_process():
    no_spare = rack_scale_mttf_hours(16_384, RF, spares_per_rack=0)
    one = rack_scale_mttf_hours(16_384, RF, spares_per_rack=1)
    two = rack_scale_mttf_hours(16_384, RF, spares_per_rack=2)
    assert two > one > no_spare
    # One spare already buys orders of magnitude: backlog mean is ~0.18,
    # so P(backlog >= 1) ~ 0.16.
    assert one > 4 * no_spare


def test_exhaustion_probability_monotone_in_spares():
    probs = [
        spare_exhaustion_probability(RF, 9, s, 3.0) for s in range(4)
    ]
    assert probs[0] == 1.0
    assert all(a > b for a, b in zip(probs, probs[1:]))
    assert 0.0 < probs[1] < 0.25


def test_exhaustion_probability_grows_with_failure_rate():
    low = spare_exhaustion_probability(1e-3, 9, 1, 3.0)
    high = spare_exhaustion_probability(5e-2, 9, 1, 3.0)
    assert high > low


def test_ettr_with_spares_improves():
    params = ETTRParameters(
        n_nodes=12_500,
        failure_rate_per_node_day=RF,
        checkpoint_interval=30 * MINUTE,
        restart_overhead=5 * MINUTE,
    )
    bare = ettr_with_spares(params, spares_per_rack=0)
    spared = ettr_with_spares(params, spares_per_rack=2)
    assert spared > bare
    assert 0.0 <= bare <= spared <= 1.0


def test_validation():
    with pytest.raises(ValueError):
        RepairUnitSpec("x", nodes_per_unit=0, repair_days=1.0)
    with pytest.raises(ValueError):
        capacity_in_repair_fraction(-1.0, SERVER_UNIT)
    with pytest.raises(ValueError):
        spare_exhaustion_probability(RF, 0, 1, 3.0)
    with pytest.raises(ValueError):
        rack_scale_mttf_hours(0, RF)


def test_infinite_mttf_at_zero_rate():
    assert rack_scale_mttf_hours(1024, 0.0) == float("inf")


def test_hot_spares_recover_a_16k_gpu_job():
    """Section V's GB200 future at a 16k-GPU job: rack-unit repair
    benches ~9x the capacity of server-unit repair, and two hot spares
    per rack buy the reliability back."""
    n_gpus = 16_384
    server_frac = capacity_in_repair_fraction(RF, SERVER_UNIT)
    assert capacity_in_repair_fraction(RF, RACK_UNIT) > 8 * server_frac
    mttf0 = rack_scale_mttf_hours(n_gpus, RF, spares_per_rack=0)
    mttf2 = rack_scale_mttf_hours(n_gpus, RF, spares_per_rack=2)
    assert mttf2 > 20 * mttf0
    params = ETTRParameters(
        n_nodes=n_gpus // 8,
        failure_rate_per_node_day=RF,
        checkpoint_interval=15 * MINUTE,
        restart_overhead=5 * MINUTE,
    )
    assert ettr_with_spares(params, spares_per_rack=2) > ettr_with_spares(
        params, spares_per_rack=0
    )
