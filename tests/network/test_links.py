import pytest

from repro.network.links import Link, LinkState, PACKET_BITS


def test_clean_link_full_capacity():
    link = Link("a", "b", capacity_gbps=200.0)
    assert link.effective_capacity_gbps == 200.0
    assert link.healthy
    assert link.packet_success_probability == 1.0


def test_ber_reduces_effective_capacity():
    link = Link("a", "b", capacity_gbps=200.0)
    link.set_bit_error_rate(2e-5)
    assert 0 < link.effective_capacity_gbps < 200.0
    expected = 200.0 * (1 - 2e-5) ** PACKET_BITS
    assert link.effective_capacity_gbps == pytest.approx(expected)


def test_heavy_ber_marks_unhealthy():
    link = Link("a", "b")
    link.set_bit_error_rate(5e-5)  # success ~ 0.19 -> below half capacity
    assert not link.healthy


def test_down_link_has_zero_capacity():
    link = Link("a", "b")
    link.bring_down()
    assert link.state is LinkState.DOWN
    assert link.effective_capacity_gbps == 0.0
    assert not link.healthy
    link.reset()
    assert link.healthy


def test_reset_clears_faults():
    link = Link("a", "b")
    link.set_bit_error_rate(1e-4)
    link.bring_down()
    link.reset()
    assert link.effective_capacity_gbps == link.capacity_gbps


def test_validation():
    with pytest.raises(ValueError):
        Link("a", "b", capacity_gbps=0.0)
    with pytest.raises(ValueError):
        Link("a", "b", bit_error_rate=1.0)
    link = Link("a", "b")
    with pytest.raises(ValueError):
        link.set_bit_error_rate(-0.1)
