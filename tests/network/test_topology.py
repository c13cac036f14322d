import pytest

from repro.network.topology import FabricSpec, FabricTopology


@pytest.fixture()
def fabric():
    return FabricTopology(FabricSpec(n_servers=40))  # exactly 2 pods


def test_pod_count(fabric):
    assert fabric.spec.n_pods == 2
    assert FabricSpec(n_servers=41).n_pods == 3


def test_link_inventory(fabric):
    # Per server: 8 rails x 2 directions; per pod-rail leaf: 4 spines x 2.
    expected = 40 * 8 * 2 + 2 * 8 * 4 * 2
    assert len(fabric.all_links()) == expected


def test_same_pod_path_avoids_spine(fabric):
    path = fabric.path(0, 5, rail=2)
    assert len(path) == 2
    assert all("spine" not in l.src and "spine" not in l.dst for l in path)


def test_cross_pod_path_requires_spine(fabric):
    with pytest.raises(ValueError, match="spine"):
        fabric.path(0, 25, rail=0)
    spine = fabric.spine_name(0, 1)
    path = fabric.path(0, 25, rail=0, spine=spine)
    assert len(path) == 4
    assert path[1].dst == spine
    assert path[2].src == spine


def test_same_server_path_is_empty(fabric):
    assert fabric.path(4, 4, rail=0) == []


def test_unknown_link_raises(fabric):
    with pytest.raises(KeyError, match="no link"):
        fabric.link("srv-0000-r0", "spine-r0-0")


def test_leaf_spine_tier_selector(fabric):
    tier = fabric.leaf_spine_links()
    assert len(tier) == 2 * 8 * 4 * 2
    for link in tier:
        names = {link.src.split("-")[0], link.dst.split("-")[0]}
        assert names == {"leaf", "spine"}


def test_reset_faults(fabric):
    link = fabric.all_links()[0]
    link.set_bit_error_rate(1e-4)
    fabric.reset_faults()
    assert link.bit_error_rate == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        FabricSpec(n_servers=0)
    with pytest.raises(ValueError):
        FabricSpec(n_servers=10, rails=0)
