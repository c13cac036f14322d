"""Random-churn equivalence of the incremental indices vs brute force.

``tests/cluster/test_indices.py`` churns a full simulated cluster;
these Hypothesis tests attack the two index structures directly with
adversarial operation sequences, including the quarantine/remediation
transitions and deliberately-stale entries (quarantine flipped without a
``refresh``) that the cluster-level test reaches only by luck:

* :class:`SortedIntSet` against a model ``set`` — every interleaving of
  add/discard/contains, plus ordering of iteration.
* :class:`FreeNodeIndex` against a brute-force rescan of the node
  objects — ``find_partial`` must return the best-fit (smallest adequate
  free count, lowest node id) schedulable node, and ``find_full_nodes``
  must pack the fullest pods first.
* A cluster-backed :class:`FreeNodeIndex`, which may answer an oversized
  gang request from its capacity bound without walking, against a bare
  index over the same nodes that always walks — same picks and the same
  internal structures after every query, under churn that drains,
  quarantines and remediates nodes behind the indices' backs.
* The ``PlacementPolicy`` contract, for both placement policies: on one
  index state a failed request rules out every larger request with a
  longer exclude list, and those re-index nothing; so does ``may_fit``
  saying no.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.components import GPUS_PER_NODE
from repro.cluster.node import Node, NodeState
from repro.core.indices import SortedIntSet

N_NODES = 12
NODES_PER_POD = 4


# ----------------------------------------------------------------------
# SortedIntSet vs a model set
# ----------------------------------------------------------------------
sis_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "discard", "contains"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=200,
)


@given(ops=sis_ops)
@settings(deadline=None, max_examples=200)
def test_sorted_int_set_equivalent_to_set(ops):
    fast = SortedIntSet()
    model = set()
    for op, value in ops:
        if op == "add":
            fast.add(value)
            model.add(value)
        elif op == "discard":
            fast.discard(value)
            model.discard(value)
        else:
            assert (value in fast) == (value in model)
        assert len(fast) == len(model)
        assert list(fast) == sorted(model)
    assert list(fast) == sorted(model)
    assert fast == model


@given(initial=st.lists(st.integers(min_value=0, max_value=30), max_size=40))
@settings(deadline=None, max_examples=100)
def test_sorted_int_set_constructor_dedupes_and_sorts(initial):
    fast = SortedIntSet(initial)
    assert list(fast) == sorted(set(initial))


# ----------------------------------------------------------------------
# FreeNodeIndex churn vs brute force
# ----------------------------------------------------------------------
def _fleet():
    return {
        i: Node(node_id=i, rack_id=i // 2, pod_id=i // NODES_PER_POD)
        for i in range(N_NODES)
    }


# One operation = (kind, node index, gpus).  Interpretation per kind:
#   alloc    - try to allocate `gpus` on the node (skipped if it can't host)
#   release  - release the oldest resident job on the node
#   drain    - start_drain
#   remediate- enter_remediation (voids residents)
#   ret      - return_to_service (only from REMEDIATION)
#   quar     - toggle quarantined
#   query_p  - cross-check find_partial(gpus clamped to 1..7)
#   query_f  - cross-check find_full_nodes(1 + gpus % 3)
churn_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "alloc",
                "alloc",
                "release",
                "drain",
                "remediate",
                "ret",
                "quar",
                "query_p",
                "query_f",
            ]
        ),
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=1, max_value=GPUS_PER_NODE),
    ),
    max_size=120,
)


def _brute_force_partial(nodes, gpus, excluded):
    """Best fit: smallest adequate free count, then lowest node id."""
    best = None
    for node in nodes.values():
        if node.node_id in excluded or not node.can_host(gpus):
            continue
        if best is None or (node.free_gpus, node.node_id) < (
            best.free_gpus,
            best.node_id,
        ):
            best = node
    return best


def _brute_force_full(nodes, n_wanted, excluded):
    """Fullest pods first (ties: lowest pod id), ascending node ids.

    Pod fill order counts every fully free node — exclusion filters the
    *pick*, not the ordering, matching the index (whose pod order can't
    know a per-job exclude list).
    """
    by_pod = {}
    for node in nodes.values():
        if node.can_host(GPUS_PER_NODE) and node.fully_free:
            by_pod.setdefault(node.pod_id, []).append(node.node_id)
    order = sorted(by_pod.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    chosen = []
    for _pod, ids in order:
        for node_id in sorted(ids):
            if node_id in excluded:
                continue
            chosen.append(nodes[node_id])
            if len(chosen) == n_wanted:
                return chosen
    return None


def _apply(nodes, op, node_id, gpus, job_counter):
    """Mutate the shared node objects; return refresh-worthy node ids."""
    node = nodes[node_id]
    if op == "alloc":
        if node.can_host(gpus):
            job_counter[0] += 1
            node.allocate(job_counter[0], gpus)
            return [node_id]
    elif op == "release":
        if node.running_jobs:
            node.release(next(iter(node.running_jobs)))
            return [node_id]
    elif op == "drain":
        if node.state is NodeState.HEALTHY:
            node.start_drain()
            return [node_id]
    elif op == "remediate":
        if node.state is not NodeState.REMEDIATION:
            node.enter_remediation()
            return [node_id]
    elif op == "ret":
        if node.state is NodeState.REMEDIATION:
            node.return_to_service()
            return [node_id]
    elif op == "quar":
        node.quarantined = not node.quarantined
        return [node_id]
    return []


@given(ops=churn_ops, excluded=st.sets(st.integers(0, N_NODES - 1), max_size=3))
@settings(deadline=None, max_examples=150)
def test_free_node_index_matches_brute_force_under_churn(ops, excluded):
    from repro.scheduler.placement import FreeNodeIndex

    nodes = _fleet()
    index = FreeNodeIndex(nodes)
    job_counter = [0]

    for op, node_id, gpus in ops:
        if op == "query_p":
            want = 1 + (gpus - 1) % (GPUS_PER_NODE - 1)  # 1..7: sub-server
            expected = _brute_force_partial(nodes, want, excluded)
            assert index.find_partial(want, excluded) is expected
        elif op == "query_f":
            n_wanted = 1 + gpus % 3
            got = index.find_full_nodes(n_wanted, excluded)
            expected = _brute_force_full(nodes, n_wanted, excluded)
            if expected is None:
                assert got is None
            else:
                assert got == expected
        else:
            for touched in _apply(nodes, op, node_id, gpus, job_counter):
                index.refresh(touched)

    # final: candidate lists and counts agree with a fresh rebuild
    rebuilt = FreeNodeIndex(nodes)
    assert index.full_node_candidates(set()) == rebuilt.full_node_candidates(
        set()
    )
    assert index.free_full_node_count() == rebuilt.free_full_node_count()


@given(ops=churn_ops)
@settings(deadline=None, max_examples=100)
def test_free_node_index_tolerates_stale_quarantine_entries(ops):
    """Quarantine flips *without* refresh: picks stay valid.

    The index contract: entries that became ineligible since insertion
    are revalidated at query time (``can_host``), so a quarantined-but-
    still-indexed node is never *returned*.  Staleness may legitimately change which eligible nodes are
    *preferred* (pod fill order uses the indexed counts), and a node
    un-quarantined without a refresh is not rediscovered — so brute-force
    equality is only owed after everything is re-indexed, asserted at the
    end.
    """
    from repro.scheduler.placement import FreeNodeIndex

    nodes = _fleet()
    index = FreeNodeIndex(nodes)
    job_counter = [0]

    for op, node_id, gpus in ops:
        if op == "quar":
            # deliberately NOT refreshed: leaves a stale index entry
            nodes[node_id].quarantined = not nodes[node_id].quarantined
        elif op == "query_p":
            want = 1 + (gpus - 1) % (GPUS_PER_NODE - 1)
            got = index.find_partial(want, set())
            if got is not None:
                assert got.can_host(want)
        elif op == "query_f":
            n_wanted = 1 + gpus % 3
            got = index.find_full_nodes(n_wanted, set())
            if got is not None:
                assert len(got) == n_wanted
                assert all(n.can_host(GPUS_PER_NODE) for n in got)
        else:
            for touched in _apply(nodes, op, node_id, gpus, job_counter):
                index.refresh(touched)

    # once every node is re-indexed, brute force is the ground truth again
    for node_id in nodes:
        index.refresh(node_id)
    assert index.find_partial(1, set()) is _brute_force_partial(nodes, 1, set())
    expected_f = _brute_force_full(nodes, 2, set())
    got = index.find_full_nodes(2, set())
    if expected_f is None:
        assert got is None
    else:
        assert got == expected_f


# ----------------------------------------------------------------------
# Capacity bound: a cluster-backed index vs one that always walks
# ----------------------------------------------------------------------
BOUND_NODES = 26  # pods of 20 and 6 nodes (Cluster's topology)

# One step = (kind, node index, amount): apply the change, then query
# both indices.  Kinds ending in "_quiet" change a node without telling
# either index, as Cluster-side transitions do.
bound_ops = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "alloc",
                "alloc",
                "release",
                "drain_quiet",
                "quar_quiet",
                "remediate_quiet",
                "ret",
                "ret_quiet",
                "refresh",
                "remove",
                "none",
            ]
        ),
        # Half the steps touch nodes 0-3, the ones exclude lists name.
        st.one_of(st.integers(0, 3), st.integers(0, BOUND_NODES - 1)),
        st.integers(min_value=0, max_value=GPUS_PER_NODE * 5),
    ),
    max_size=100,
)


def _internals(index):
    return (
        [list(bucket) for bucket in index._buckets],
        [(pod, list(ids)) for pod, ids in index._full_by_pod.items()],
        list(index._pod_order),
        index._full_count,
        dict(index._bucket_of),
    )


def _change(cluster, bounded, walking, op, node_id, amount, job_counter):
    """Apply one churn step; refresh both indices where the scheduler would."""
    node = cluster.nodes[node_id]
    touched = False
    if op == "alloc":
        gpus = GPUS_PER_NODE if amount % 2 else 1 + amount % GPUS_PER_NODE
        if node.can_host(gpus):
            job_counter[0] += 1
            node.allocate(job_counter[0], gpus)
            touched = True  # the scheduler refreshes every allocation
    elif op == "release":
        if node.running_jobs:
            cluster.release_job(node_id, next(iter(node.running_jobs)))
            touched = True
    elif op == "drain_quiet":
        node.start_drain()
    elif op == "quar_quiet":
        node.quarantined = not node.quarantined
    elif op == "remediate_quiet":
        if node.state is not NodeState.REMEDIATION:
            node.enter_remediation()
    elif op in ("ret", "ret_quiet"):
        if node.state is NodeState.REMEDIATION:
            node.return_to_service()
            touched = op == "ret"
    elif op == "refresh":
        touched = True
    elif op == "remove":
        bounded.remove(node_id)
        walking.remove(node_id)
    if touched:
        bounded.refresh(node_id)
        walking.refresh(node_id)


@given(
    ops=bound_ops,
    exclusions=st.lists(
        st.sets(st.integers(0, 3), min_size=1, max_size=2), max_size=2
    ),
)
@settings(deadline=None, max_examples=400)
def test_capacity_bound_matches_an_index_that_always_walks(ops, exclusions):
    from repro.cluster.cluster import Cluster, ClusterSpec
    from repro.scheduler.placement import FreeNodeIndex
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams

    cluster = Cluster(
        ClusterSpec.rsc1_like(n_nodes=BOUND_NODES, campaign_days=10),
        Engine(),
        RngStreams(0),
    )
    bounded = FreeNodeIndex(cluster.nodes, cluster)
    walking = FreeNodeIndex(cluster.nodes)
    job_counter = [0]
    # Queries cycle through no exclusions (a failing walk then marks the
    # index clean) and the drawn exclude lists (it then does not).
    exclusions = [set()] + exclusions

    for step, (op, node_id, amount) in enumerate(ops):
        _change(cluster, bounded, walking, op, node_id, amount, job_counter)
        excluded = exclusions[step % len(exclusions)]
        # A single node (a walk that stops early), or around the bound:
        # one or two below the count, at it, and above it.
        count = walking.free_full_node_count()
        n_nodes = 1 if amount % 6 == 0 else max(1, count + amount % 6 - 3)
        got = bounded.find_full_nodes(n_nodes, excluded)
        want = walking.find_full_nodes(n_nodes, excluded)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert [n.node_id for n in got] == [n.node_id for n in want]
        assert _internals(bounded) == _internals(walking)
        if amount % 4 == 0:
            gpus = 1 + amount % (GPUS_PER_NODE - 1)
            assert bounded.find_partial(gpus, excluded) is walking.find_partial(
                gpus, excluded
            )
            assert _internals(bounded) == _internals(walking)


# ----------------------------------------------------------------------
# The placement contract a scheduling pass relies on
# ----------------------------------------------------------------------
REQUESTS = [1, 2, 3, 4, 7, 8, 16, 24, 32, 64]
exclude_lists = st.sets(st.integers(0, 5), max_size=2)


def _policies():
    from repro.scheduler.placement import PlacementPolicy
    from repro.scheduler.reliability_aware import ReliabilityAwarePlacement

    return [
        PlacementPolicy(),
        # Uneven risk tiers, so the order is not the base policy's.
        ReliabilityAwarePlacement(risk_of=lambda node: node.node_id % 3),
    ]


@given(
    ops=bound_ops,
    first=st.tuples(st.sampled_from(REQUESTS), exclude_lists),
    later=st.lists(
        st.tuples(st.integers(0, len(REQUESTS) - 1), exclude_lists),
        min_size=1,
        max_size=4,
    ),
)
@settings(deadline=None, max_examples=300)
def test_a_failed_placement_rules_out_larger_requests(ops, first, later):
    """``place(g, E)`` fails => ``place(g2 >= g, E2 ⊇ E)`` fails, flushing
    nothing, on one index state, for both placement policies.

    A cluster-backed index is driven through churn that drains,
    quarantines and remediates nodes behind its back, so failing walks
    meet stale entries.  ``may_fit`` saying no is checked the same way.
    """
    from repro.cluster.cluster import Cluster, ClusterSpec
    from repro.scheduler.placement import FreeNodeIndex
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams

    cluster = Cluster(
        ClusterSpec.rsc1_like(n_nodes=BOUND_NODES, campaign_days=10),
        Engine(),
        RngStreams(0),
    )
    index = FreeNodeIndex(cluster.nodes, cluster)
    shadow = FreeNodeIndex(cluster.nodes)  # _change refreshes two indices
    job_counter = [0]
    gpus, excluded = first

    def state():
        return _internals(index), index.version

    def larger_requests_fail(floor, base_excluded):
        for offset, extra in later:
            bigger = [g for g in REQUESTS if g >= floor]
            g2 = bigger[offset % len(bigger)]
            before = state()
            assert policy.place(index, g2, base_excluded | extra) is None
            assert state() == before

    for step, (op, node_id, amount) in enumerate(ops):
        _change(cluster, index, shadow, op, node_id, amount, job_counter)
        policy = _policies()[step % 2]
        for g in REQUESTS:
            if not index.may_fit(g):
                larger_requests_fail(g, set())
                break
        if policy.place(index, gpus, excluded) is None:
            larger_requests_fail(gpus, excluded)
