"""Topology-aware gang placement over GPU slots.

Two regimes, as in the real cluster:

* **Sub-server jobs** (1-7 GPUs) pack onto partially used nodes, best-fit,
  so whole servers stay free for gangs.
* **Server-and-larger jobs** take whole nodes.  Placement is rail/pod
  aware: it fills from the pods with the most free servers, minimizing the
  number of pods a gang spans (the paper's Slurm "attempts to co-locate
  tasks given the physical network topology").

The :class:`FreeNodeIndex` keeps allocation queries O(1)-ish.  It tolerates
stale entries (a node that drained or failed since insertion) by
re-validating against the live node object at query time — cheaper and less
error-prone than keeping every state transition synchronously mirrored.

Iteration order is part of the determinism contract: buckets yield node
ids ascending, and pods yield by (most free servers, lowest pod id).  The
index maintains those orders as sorted structures updated on
refresh/remove, so no ``sorted()`` runs inside the allocation loop.

Most gang placements fail, and nearly all of those ask for more nodes
than the index holds fully free entries.  An index built over a
:class:`~repro.cluster.cluster.Cluster` answers those without a walk
while it knows it holds no stale fully free entry (``docs/PERFORMANCE.md``,
"Gang placement bound").
"""

from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.components import GPUS_PER_NODE
from repro.cluster.node import Node
from repro.core.indices import SortedIntSet
from repro.scheduler.preemption import ResidentSummary

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster


class FreeNodeIndex:
    """Tracks free GPU capacity: per-free-count buckets + per-pod full nodes."""

    def __init__(self, nodes: Dict[int, Node], cluster: Optional["Cluster"] = None):
        self._nodes = nodes
        #: Source of ``availability_epoch``; without one the index never
        #: trusts itself clean and ``find_full_nodes`` always walks.
        self._cluster = cluster
        #: The cluster's availability epoch when a failing
        #: ``find_full_nodes`` walk last validated every fully free entry,
        #: or None.  While it equals the current epoch no fully free entry
        #: is stale: only an availability transition makes one stale
        #: behind the index's back, and ``refresh``/``remove`` re-validate
        #: the node they touch.
        self._clean_epoch: Optional[int] = None
        # bucket[k] = node ids with exactly k free GPUs, kept sorted
        self._buckets: List[SortedIntSet] = [
            SortedIntSet() for _ in range(GPUS_PER_NODE + 1)
        ]
        # pod id -> its fully free nodes, kept sorted; keys pre-seeded in
        # first-touch (node-id) order, i.e. ascending pod id for id-ordered
        # fleets.
        self._full_by_pod: Dict[int, SortedIntSet] = {}
        for node in nodes.values():
            self._full_by_pod.setdefault(node.pod_id, SortedIntSet())
        # (-free_count, pod_id) tuples, sorted — the pod fill order — for
        # pods with at least one fully free node.
        self._pod_order: List[Tuple[int, int]] = []
        self._full_count = 0
        self._bucket_of: Dict[int, int] = {}
        #: Preemption's per-node resident summaries (node id ->
        #: ``preemption.resident_summary``), built lazily by
        #: ``PreemptionPolicy.plan_with_shielded_start``.  An entry is dropped wherever the
        #: node's residents, its free GPUs or a resident's start time can
        #: change: ``refresh``/``remove`` (which follow every allocate and
        #: release) and ``forget_summaries`` (a preflight re-baseline).
        #: ``Node.enter_remediation`` clears residents without the index
        #: seeing it, but the node then leaves the schedulable ids that
        #: planning walks, and it only returns through the scheduler's
        #: ``_on_node_available``, which refreshes it.
        self.resident_summaries: Dict[int, Optional[ResidentSummary]] = {}
        #: Bumped by every ``refresh``, ``remove`` and
        #: ``forget_summaries``.  While it stands no entry and no resident
        #: summary has changed, so the scheduler may reuse a failed
        #: placement within a pass, and (with the cluster's availability
        #: epoch) a failed preemption plan.
        self.version = 0
        for node in nodes.values():
            self.refresh(node.node_id)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _pod_count_changed(self, pod_id: int, old: int, new: int) -> None:
        """Re-slot a pod in the fill order after its full-count changed."""
        order = self._pod_order
        if old > 0:
            order.remove((-old, pod_id))
        if new > 0:
            insort(order, (-new, pod_id))

    def _drop_full(self, node: Node) -> None:
        pod = self._full_by_pod[node.pod_id]
        old = len(pod)
        pod.discard(node.node_id)
        if len(pod) != old:
            self._full_count -= 1
            self._pod_count_changed(node.pod_id, old, old - 1)

    def _add_full(self, node: Node) -> None:
        pod = self._full_by_pod[node.pod_id]
        old = len(pod)
        pod.add(node.node_id)
        if len(pod) != old:
            self._full_count += 1
            self._pod_count_changed(node.pod_id, old, old + 1)

    def forget_summaries(self, node_ids: Iterable[int]) -> None:
        """Drop cached resident summaries (a resident's start time moved)."""
        self.version += 1
        summaries = self.resident_summaries
        for node_id in node_ids:
            summaries.pop(node_id, None)

    def refresh(self, node_id: int) -> None:
        """Re-index a node after any capacity or state change."""
        self.version += 1
        self.resident_summaries.pop(node_id, None)
        node = self._nodes[node_id]
        old = self._bucket_of.pop(node_id, None)
        if old is not None:
            self._buckets[old].discard(node_id)
            if old == GPUS_PER_NODE:
                self._drop_full(node)
        if not node.is_schedulable() or node.free_gpus == 0:
            return
        k = node.free_gpus
        self._buckets[k].add(node_id)
        self._bucket_of[node_id] = k
        if k == GPUS_PER_NODE:
            self._add_full(node)

    def remove(self, node_id: int) -> None:
        """Drop a node from the index (failed, draining, or quarantined)."""
        self.version += 1
        self.resident_summaries.pop(node_id, None)
        node = self._nodes[node_id]
        old = self._bucket_of.pop(node_id, None)
        if old is not None:
            self._buckets[old].discard(node_id)
            if old == GPUS_PER_NODE:
                self._drop_full(node)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _iter_pods(self) -> List[Tuple[int, Iterable[int]]]:
        """(pod_id, full node ids ascending) by (most free, lowest pod)."""
        return [
            (pod_id, self._full_by_pod[pod_id])
            for _neg_count, pod_id in list(self._pod_order)
        ]

    def _flush_stale(self, stale: Optional[List[int]]) -> None:
        """Re-index entries found invalid during a query.

        Queries iterate the live sorted structures, so repositioning is
        deferred to the end of each scan instead of mutating mid-iteration
        (the choice sequence is the same as an immediate refresh over a
        snapshot).
        """
        if stale:
            for node_id in stale:
                self.refresh(node_id)

    def find_partial(self, gpus: int, excluded: Set[int]) -> Optional[Node]:
        """Best-fit node for a sub-server job (smallest adequate bucket)."""
        nodes = self._nodes
        for k in range(gpus, GPUS_PER_NODE + 1):
            found = None
            stale: Optional[List[int]] = None
            for node_id in self._buckets[k]:
                if node_id in excluded:
                    continue
                node = nodes[node_id]
                if node.can_host(gpus):
                    found = node
                    break
                if stale is None:
                    stale = []
                stale.append(node_id)
            self._flush_stale(stale)
            if found is not None:
                return found
        return None

    def _known_clean(self) -> bool:
        """Whether the index knows it holds no stale fully free entry."""
        return (
            self._clean_epoch is not None
            and self._clean_epoch == self._cluster.availability_epoch
        )

    def may_fit(self, gpus: int) -> bool:
        """Whether a ``place`` of ``gpus`` or more GPUs may succeed.

        False only if every such call fails without touching the index.
        The bucket lengths and the full count include stale entries, so
        they bound the valid ones and "no" is exact.  A walk over a
        stale entry would flush it, which moves the pod fill order and
        ``free_full_node_count``, so a gang request answers "no" only
        while no fully free entry can be stale.
        """
        if gpus < GPUS_PER_NODE:
            buckets = self._buckets
            return any(buckets[k] for k in range(gpus, GPUS_PER_NODE + 1))
        full = self._full_count
        return gpus // GPUS_PER_NODE <= full or (
            full > 0 and not self._known_clean()
        )

    def find_full_nodes(
        self, n_nodes: int, excluded: Set[int]
    ) -> Optional[List[Node]]:
        """Pick ``n_nodes`` fully free servers, packing the fullest pods."""
        if n_nodes > self._full_count and self._known_clean():
            # The count bounds the valid entries, so the walk would fail;
            # with no stale entry it would not flush anything either.
            return None
        nodes = self._nodes
        chosen: List[Node] = []
        stale: Optional[List[int]] = None
        skipped_excluded = False
        for _pod_id, node_ids in self._iter_pods():
            for node_id in node_ids:
                if node_id in excluded:
                    skipped_excluded = True
                    continue
                node = nodes[node_id]
                if not node.can_host(GPUS_PER_NODE):
                    if stale is None:
                        stale = []
                    stale.append(node_id)
                    continue
                chosen.append(node)
                if len(chosen) == n_nodes:
                    self._flush_stale(stale)
                    return chosen
        self._flush_stale(stale)
        if self._cluster is not None and not skipped_excluded:
            # Every entry was validated and the stale ones are now gone.
            self._clean_epoch = self._cluster.availability_epoch
        return None

    def free_full_node_count(self) -> int:
        """Upper bound on fully free servers (may include stale entries)."""
        return self._full_count

    def full_node_candidates(self, excluded: Set[int]) -> List[Node]:
        """All validated fully-free servers (for custom selection orders).

        Pods iterate in first-touch order (ascending pod id for id-ordered
        fleets), nodes ascending within each pod.
        """
        nodes = self._nodes
        out: List[Node] = []
        stale: Optional[List[int]] = None
        for pod in self._full_by_pod.values():
            for node_id in pod:
                if node_id in excluded:
                    continue
                node = nodes[node_id]
                if not node.can_host(GPUS_PER_NODE):
                    if stale is None:
                        stale = []
                    stale.append(node_id)
                    continue
                out.append(node)
        self._flush_stale(stale)
        return out


@dataclass
class PlacementPolicy:
    """Stateless placement decisions over a :class:`FreeNodeIndex`.

    Contract (subclasses keep it): on one index state, a failed
    ``place(index, g, E)`` implies a failed ``place(index, g2, E2)``
    for every ``g2 >= g`` and ``E2 ⊇ E``, and that second call would
    re-index no entry.  Larger requests and longer exclude lists only
    shrink what fits, and the first call already flushed every stale
    entry the second one would meet.  A scheduling pass relies on this
    to skip placements it knows fail.
    """

    def place(
        self, index: FreeNodeIndex, n_gpus: int, excluded: Set[int]
    ) -> Optional[List[Node]]:
        """Return the nodes for a gang, or ``None`` if it cannot fit now."""
        if n_gpus < GPUS_PER_NODE:
            node = index.find_partial(n_gpus, excluded)
            return None if node is None else [node]
        if n_gpus % GPUS_PER_NODE != 0:
            raise ValueError(
                f"multi-server jobs must use whole servers (got {n_gpus})"
            )
        return index.find_full_nodes(n_gpus // GPUS_PER_NODE, excluded)
