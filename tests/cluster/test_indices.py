"""Incremental availability indices vs brute-force rescans.

The cluster keeps `_schedulable_ids` / `_quarantined_ids` /
`_remediation_count` patched incrementally from `Node.on_transition`.
These tests churn a live cluster through every transition source —
injected incidents (immediate and draining), remediation round trips,
quarantine toggles, job allocate/release — and assert the indices always
equal the O(N) scans they replaced.
"""

import random

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.node import NodeState
from repro.core.indices import SortedIntSet
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


# ----------------------------------------------------------------------
# SortedIntSet: the primitive under the indices
# ----------------------------------------------------------------------
def test_sorted_int_set_matches_set_semantics():
    rng = random.Random(7)
    fast = SortedIntSet()
    model = set()
    for _ in range(2000):
        value = rng.randrange(200)
        op = rng.random()
        if op < 0.55:
            fast.add(value)
            model.add(value)
        elif op < 0.9:
            fast.discard(value)
            model.discard(value)
        else:
            assert (value in fast) == (value in model)
        assert len(fast) == len(model)
    assert fast.as_list() == sorted(model)
    assert list(fast) == sorted(model)  # iteration is ascending
    assert fast == model


def test_sorted_int_set_init_dedups_and_sorts():
    s = SortedIntSet([5, 1, 5, 3, 1])
    assert s.as_list() == [1, 3, 5]
    s.add(3)  # re-adding is a no-op
    assert s.as_list() == [1, 3, 5]
    assert bool(s)
    s.clear()
    assert not s and len(s) == 0


def test_sorted_int_set_equality_forms():
    s = SortedIntSet([2, 1])
    assert s == SortedIntSet([1, 2])
    assert s == {1, 2}
    assert s == [1, 2]
    assert s != [2, 1]  # list/tuple comparison is order-sensitive


# ----------------------------------------------------------------------
# Cluster indices: churn vs rescan
# ----------------------------------------------------------------------
def _assert_indices_match_scans(cluster):
    """The incremental sets' invariants, checked against brute force."""
    nodes = cluster.nodes.values()
    scan_schedulable = sorted(n.node_id for n in nodes if n.is_schedulable())
    scan_quarantined = sorted(n.node_id for n in nodes if n.quarantined)
    scan_healthy = sum(
        1 for n in nodes if n.state is not NodeState.REMEDIATION
    )
    assert [n.node_id for n in cluster.schedulable_nodes()] == scan_schedulable
    assert cluster.schedulable_node_ids().as_list() == scan_schedulable
    assert cluster.quarantined_node_ids() == scan_quarantined
    assert cluster.healthy_node_count() == scan_healthy


def _build_cluster(n_nodes=24, days=40.0, seed=5):
    engine = Engine()
    rngs = RngStreams(seed)
    # High lemon fraction so incidents (and repeat offenders) are dense
    # enough that every transition path fires within the test span.
    spec = ClusterSpec.rsc1_like(
        n_nodes=n_nodes, campaign_days=days, lemon_fraction=0.2
    )
    cluster = Cluster(spec, engine, rngs)
    return engine, cluster


def test_indices_survive_incident_repair_restore_release_churn():
    engine, cluster = _build_cluster()
    rng = random.Random(99)
    held = {}  # job_id -> node_id
    downs = []

    def on_node_down(node, incident):
        # Scheduler stand-in: jobs resident on a dead node are torn down
        # (the node clears its own allocations on entering remediation).
        downs.append(node.node_id)
        for job_id in list(node.running_jobs):
            held.pop(job_id, None)

    cluster.on_node_down = on_node_down
    cluster.on_node_available = lambda node: None
    cluster.start()

    span = cluster.spec.span_seconds
    job_seq = iter(range(1, 100_000))
    steps = 120
    for step in range(1, steps + 1):
        engine.run_until(step * span / steps)
        _assert_indices_match_scans(cluster)

        for _ in range(rng.randrange(4)):
            op = rng.random()
            if op < 0.5:
                # Allocate onto a random schedulable node with room.
                candidates = [
                    n
                    for n in cluster.schedulable_nodes()
                    if n.free_gpus > 0
                ]
                if candidates:
                    node = rng.choice(candidates)
                    job_id = next(job_seq)
                    gpus = min(rng.choice([1, 2, 4, 8]), node.free_gpus)
                    node.allocate(job_id, gpus)
                    held[job_id] = node.node_id
            elif op < 0.85 and held:
                # Release a random job (exercises the deferred-drain
                # release path in Cluster.release_job).
                job_id = rng.choice(sorted(held))
                cluster.release_job(held.pop(job_id), job_id)
            else:
                # Lemon-detection stand-in: toggle quarantine.
                node = cluster.nodes[rng.randrange(cluster.spec.n_nodes)]
                node.quarantined = not node.quarantined
            _assert_indices_match_scans(cluster)

    # The churn actually exercised the interesting transitions.
    assert downs, "no immediate incident took a node down"
    assert any(
        n.state is NodeState.REMEDIATION for n in cluster.nodes.values()
    ) or engine.executed_events > 0
    _assert_indices_match_scans(cluster)
