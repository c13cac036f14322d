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
        assert fast.as_list() == sorted(model)
    assert list(fast) == sorted(model)
    assert fast == model


@given(initial=st.lists(st.integers(min_value=0, max_value=30), max_size=40))
@settings(deadline=None, max_examples=100)
def test_sorted_int_set_constructor_dedupes_and_sorts(initial):
    fast = SortedIntSet(initial)
    assert fast.as_list() == sorted(set(initial))


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
