import numpy as np
import pytest

from repro.network.collectives import (
    concurrent_allreduce_bandwidths,
    ring_allreduce_bandwidth,
)
from repro.network.faults import inject_bit_errors, restore_all
from repro.network.routing import AdaptiveRouting, StaticRouting
from repro.network.shield import ShieldRouting
from repro.network.topology import FabricSpec, FabricTopology


@pytest.fixture()
def fabric():
    return FabricTopology(FabricSpec(n_servers=64))


def test_clean_ring_hits_full_rail_bandwidth(fabric):
    result = ring_allreduce_bandwidth(fabric, list(range(64)), StaticRouting())
    # 8 rails x 200 Gb/s, no contention on a dedicated ring.
    assert result.bus_bandwidth_gbps == pytest.approx(1600.0)
    assert result.per_rail_gbps == pytest.approx(200.0)


def test_single_server_group_unconstrained(fabric):
    result = ring_allreduce_bandwidth(fabric, [3], StaticRouting())
    assert result.bus_bandwidth_gbps == float("inf")
    assert result.bottleneck_link is None


def test_duplicate_servers_rejected(fabric):
    with pytest.raises(ValueError, match="duplicate"):
        ring_allreduce_bandwidth(fabric, [1, 1], StaticRouting())


def test_empty_groups_rejected(fabric):
    with pytest.raises(ValueError):
        concurrent_allreduce_bandwidths(fabric, [], StaticRouting())


def test_downed_link_zeroes_static_ring(fabric):
    # Down every rail-0..7 uplink of server 10: its ring edges die.
    for link in fabric.uplinks_of_server(10):
        link.bring_down()
    result = ring_allreduce_bandwidth(fabric, list(range(64)), StaticRouting())
    assert result.bus_bandwidth_gbps == 0.0


def test_adaptive_retains_more_bandwidth_under_ber(fabric):
    rng = np.random.default_rng(3)
    inject_bit_errors(fabric, 0.25, 5e-5, rng)
    static = ring_allreduce_bandwidth(fabric, list(range(64)), StaticRouting())
    adaptive = ring_allreduce_bandwidth(fabric, list(range(64)), AdaptiveRouting())
    assert adaptive.bus_bandwidth_gbps > static.bus_bandwidth_gbps
    assert static.bus_bandwidth_gbps < 0.75 * 1600.0  # static visibly degraded
    restore_all(fabric)
    clean = ring_allreduce_bandwidth(fabric, list(range(64)), StaticRouting())
    assert clean.bus_bandwidth_gbps == pytest.approx(1600.0)


def test_concurrent_groups_share_links_fairly(fabric):
    # Two rings crossing pods on the same rails contend at the spine tier.
    groups = [(0, 20), (1, 21)]
    results = concurrent_allreduce_bandwidths(fabric, groups, StaticRouting())
    assert len(results) == 2
    for result in results:
        assert 0 < result.bus_bandwidth_gbps <= 1600.0


def test_allocation_never_exceeds_link_capacity(fabric):
    groups = [(i, i + 20) for i in range(10)]
    results = concurrent_allreduce_bandwidths(fabric, groups, StaticRouting())
    # Aggregate per-edge bandwidth on one rail cannot exceed what the
    # leaf->spine tier offers that rail's pod (4 spines x 200).
    per_rail = [r.bus_bandwidth_gbps / 8 for r in results]
    assert sum(per_rail) <= 4 * 200.0 + 1e-6


def test_adaptive_improves_contention_tail(fabric):
    rng = np.random.default_rng(11)
    tails = {}
    for policy in (StaticRouting(), AdaptiveRouting()):
        bws = []
        r = np.random.default_rng(11)
        for _ in range(5):
            perm = r.permutation(64)
            groups = [tuple(int(x) for x in perm[i : i + 2]) for i in range(0, 64, 2)]
            results = concurrent_allreduce_bandwidths(fabric, groups, policy)
            bws += [res.bus_bandwidth_gbps for res in results]
        tails[policy.name] = min(bws)
    assert tails["adaptive"] >= tails["static"]


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        ("all_reduce", 2, 1.0),
        ("all_reduce", 512, 2 * 511 / 512),
        ("all_gather", 4, 0.75),
        ("reduce_scatter", 4, 0.75),
        ("broadcast", 16, 1.0),
        ("all_reduce", 1, 1.0),
    ],
)
def test_collective_bus_factors(kind, n, expected):
    from repro.network.collectives import collective_bus_factor

    assert collective_bus_factor(kind, n) == pytest.approx(expected)


def test_collective_bus_factor_validation():
    from repro.network.collectives import collective_bus_factor

    with pytest.raises(ValueError, match="known"):
        collective_bus_factor("all_to_all", 4)
    with pytest.raises(ValueError):
        collective_bus_factor("all_reduce", 0)


def test_fig12a_bandwidth_under_link_errors(fabric):
    """Fig. 12a: a 512-GPU ring over five fresh random BER placements
    (paper: AR maintains much higher bandwidth under BER; SHIELD alone
    left 50-75% losses because its link-down threshold is too
    conservative)."""
    servers = list(range(64))
    results = {"static": [], "shield": [], "adaptive": []}
    rng = np.random.default_rng(12)
    for _iteration in range(5):
        restore_all(fabric)
        inject_bit_errors(fabric, 0.25, 5e-5, rng)
        for policy in (StaticRouting(), ShieldRouting(), AdaptiveRouting()):
            bw = ring_allreduce_bandwidth(fabric, servers, policy)
            results[policy.name].append(bw.bus_bandwidth_gbps)
    restore_all(fabric)
    clean_bw = ring_allreduce_bandwidth(
        fabric, servers, StaticRouting()
    ).bus_bandwidth_gbps
    # SHIELD cannot see sub-threshold degradation: it tracks static.
    assert np.mean(results["shield"]) <= np.mean(results["adaptive"])
    static_mean = np.mean(results["static"])
    adaptive_mean = np.mean(results["adaptive"])
    # AR wins by a wide margin; static is visibly degraded.
    assert adaptive_mean > 1.3 * static_mean
    assert static_mean < 0.75 * clean_bw
    assert adaptive_mean > 0.85 * clean_bw


def test_fig12b_contention(fabric):
    """Fig. 12b: shuffled cross-pod 2-server pairings, many concurrent
    rings (paper: AR lowers performance variation and achieves higher
    performance)."""
    results = {}
    for policy in (StaticRouting(), AdaptiveRouting()):
        rng = np.random.default_rng(7)  # same pairings for both policies
        bws = []
        for _ in range(5):
            left = rng.permutation(32)
            right = rng.permutation(np.arange(32, 64))
            groups = [(int(a), int(b)) for a, b in zip(left, right)]
            bws += [
                r.bus_bandwidth_gbps
                for r in concurrent_allreduce_bandwidths(fabric, groups, policy)
            ]
        results[policy.name] = np.asarray(bws)
    static, adaptive = results["static"], results["adaptive"]
    # AR: higher mean, better worst case, lower relative spread.
    assert adaptive.mean() >= static.mean()
    assert adaptive.min() >= static.min()
    cv_static = static.std() / static.mean()
    cv_adaptive = adaptive.std() / adaptive.mean()
    assert cv_adaptive <= cv_static + 1e-9
