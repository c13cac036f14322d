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
"""

from bisect import insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.components import GPUS_PER_NODE
from repro.cluster.node import Node
from repro.core.indices import SortedIntSet


class FreeNodeIndex:
    """Tracks free GPU capacity: per-free-count buckets + per-pod full nodes."""

    def __init__(self, nodes: Dict[int, Node]):
        self._nodes = nodes
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

    def refresh(self, node_id: int) -> None:
        """Re-index a node after any capacity or state change."""
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

    def find_full_nodes(
        self, n_nodes: int, excluded: Set[int]
    ) -> Optional[List[Node]]:
        """Pick ``n_nodes`` fully free servers, packing the fullest pods."""
        nodes = self._nodes
        chosen: List[Node] = []
        stale: Optional[List[int]] = None
        for _pod_id, node_ids in self._iter_pods():
            for node_id in node_ids:
                if node_id in excluded:
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
    """Stateless placement decisions over a :class:`FreeNodeIndex`."""

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

    def pods_spanned(self, nodes: Iterable[Node]) -> int:
        return len({n.pod_id for n in nodes})
