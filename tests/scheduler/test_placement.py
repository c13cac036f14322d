import pytest

from repro.cluster.node import Node
from repro.scheduler.placement import FreeNodeIndex, PlacementPolicy


def make_nodes(n, servers_per_pod=20):
    return {
        i: Node(i, rack_id=i // 2, pod_id=i // servers_per_pod) for i in range(n)
    }


def test_sub_server_best_fit_prefers_most_loaded():
    nodes = make_nodes(3)
    nodes[0].allocate(1, 6)  # 2 free
    nodes[1].allocate(2, 4)  # 4 free
    index = FreeNodeIndex(nodes)
    index.refresh(0)
    index.refresh(1)
    policy = PlacementPolicy()
    placed = policy.place(index, 2, excluded=set())
    assert [n.node_id for n in placed] == [0]  # tightest fit wins


def test_full_node_jobs_need_fully_free_nodes():
    nodes = make_nodes(2)
    nodes[0].allocate(1, 1)
    index = FreeNodeIndex(nodes)
    index.refresh(0)
    policy = PlacementPolicy()
    placed = policy.place(index, 8, excluded=set())
    assert [n.node_id for n in placed] == [1]


def test_multi_node_placement_packs_fullest_pod():
    nodes = make_nodes(40)  # pods 0 and 1
    # Occupy most of pod 0 so pod 1 has more free servers.
    for i in range(15):
        nodes[i].allocate(100 + i, 8)
    index = FreeNodeIndex(nodes)
    for i in range(15):
        index.refresh(i)
    policy = PlacementPolicy()
    placed = policy.place(index, 10 * 8, excluded=set())
    pods = {n.pod_id for n in placed}
    assert pods == {1}  # fits entirely in the emptier pod


def test_placement_spans_pods_when_needed():
    nodes = make_nodes(40)
    index = FreeNodeIndex(nodes)
    policy = PlacementPolicy()
    placed = policy.place(index, 30 * 8, excluded=set())
    assert len(placed) == 30
    assert len({n.pod_id for n in placed}) == 2


def test_unsatisfiable_returns_none():
    nodes = make_nodes(4)
    index = FreeNodeIndex(nodes)
    policy = PlacementPolicy()
    assert policy.place(index, 5 * 8, excluded=set()) is None


def test_excluded_nodes_skipped():
    nodes = make_nodes(2)
    index = FreeNodeIndex(nodes)
    policy = PlacementPolicy()
    placed = policy.place(index, 8, excluded={0})
    assert [n.node_id for n in placed] == [1]


def test_stale_entries_validated_lazily():
    nodes = make_nodes(2)
    index = FreeNodeIndex(nodes)
    # Node 0 drains behind the index's back.
    nodes[0].start_drain()
    policy = PlacementPolicy()
    placed = policy.place(index, 8, excluded=set())
    assert [n.node_id for n in placed] == [1]


def test_remove_and_refresh_roundtrip():
    nodes = make_nodes(1)
    index = FreeNodeIndex(nodes)
    index.remove(0)
    assert index.free_full_node_count() == 0
    index.refresh(0)
    assert index.free_full_node_count() == 1


def test_non_multiple_of_eight_multi_server_rejected():
    nodes = make_nodes(2)
    index = FreeNodeIndex(nodes)
    policy = PlacementPolicy()
    with pytest.raises(ValueError, match="whole servers"):
        policy.place(index, 12, excluded=set())


def test_quarantined_node_never_placed():
    nodes = make_nodes(1)
    nodes[0].quarantined = True
    index = FreeNodeIndex(nodes)
    policy = PlacementPolicy()
    assert policy.place(index, 1, excluded=set()) is None


# ----------------------------------------------------------------------
# capacity bound: which failing gang requests skip the walk
# ----------------------------------------------------------------------
def bounded_index(n_nodes):
    """A cluster-backed index, plus a list that records every walk."""
    from repro.cluster.cluster import Cluster, ClusterSpec
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams

    cluster = Cluster(
        ClusterSpec.rsc1_like(n_nodes=n_nodes, campaign_days=10),
        Engine(),
        RngStreams(0),
    )
    index = FreeNodeIndex(cluster.nodes, cluster)
    walks = []
    iter_pods = index._iter_pods

    def counted():
        walks.append(1)
        return iter_pods()

    index._iter_pods = counted
    return cluster, index, walks


def test_oversized_request_skips_the_walk_once_clean():
    _cluster, index, walks = bounded_index(4)
    assert index.find_full_nodes(5, set()) is None
    assert len(walks) == 1  # the first failure validates every entry
    assert index.find_full_nodes(5, set()) is None
    assert index.find_full_nodes(9, set()) is None
    assert len(walks) == 1
    assert len(index.find_full_nodes(4, set())) == 4  # within the bound: walks
    assert len(walks) == 2


def test_node_transition_forces_the_next_walk():
    cluster, index, walks = bounded_index(4)
    index.find_full_nodes(5, set())
    cluster.nodes[2].start_drain()  # stale entry behind the index's back
    assert index.find_full_nodes(5, set()) is None
    assert len(walks) == 2
    assert index.free_full_node_count() == 3  # the walk flushed it
    cluster.nodes[1].quarantined = True
    assert index.find_full_nodes(4, set()) is None
    assert len(walks) == 3
    assert index.free_full_node_count() == 2


def test_refresh_and_remove_keep_the_index_clean():
    cluster, index, walks = bounded_index(4)
    index.find_full_nodes(5, set())
    node = cluster.nodes[0]
    node.allocate(1, 8)
    index.refresh(0)
    index.remove(3)
    assert index.find_full_nodes(3, set()) is None
    assert len(walks) == 1


def test_walk_that_skips_an_excluded_entry_does_not_mark_clean():
    cluster, index, walks = bounded_index(4)
    cluster.nodes[1].start_drain()
    assert index.find_full_nodes(5, {1}) is None  # node 1 never validated
    assert index.free_full_node_count() == 4
    assert index.find_full_nodes(5, set()) is None
    assert len(walks) == 2
    assert index.free_full_node_count() == 3


def test_bare_index_always_walks():
    index = FreeNodeIndex(make_nodes(4))
    walks = []
    iter_pods = index._iter_pods
    index._iter_pods = lambda: walks.append(1) or iter_pods()
    for _ in range(3):
        assert index.find_full_nodes(5, set()) is None
    assert len(walks) == 3
