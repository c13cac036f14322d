"""Ring all-reduce bandwidth estimation over the fabric.

The NCCL-Tests-style experiments of Fig. 12 measure all-reduce *bus
bandwidth*.  For a ring over M members, bus bandwidth is gated by the
slowest ring edge; with rail-optimized placement each inter-server ring
edge runs over all 8 rails in parallel (NCCL opens one ring per rail), and
intra-server edges ride NVSwitch (modelled as unconstrained).

Link sharing across concurrent flows is max-min fair (progressive
filling) — the standard flow-level abstraction for per-VL fair switches.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.links import Link
from repro.network.routing import RoutingPolicy
from repro.network.topology import FabricTopology


@dataclass(frozen=True)
class AllReduceResult:
    """Bandwidth outcome of one collective."""

    group_id: int
    servers: Tuple[int, ...]
    bus_bandwidth_gbps: float
    bottleneck_link: Optional[str]


def _ring_edges(servers: Sequence[int]) -> List[Tuple[int, int]]:
    """Inter-server edges of the ring (server-level; NVSwitch edges free)."""
    if len(servers) < 2:
        return []
    edges = []
    for i, src in enumerate(servers):
        dst = servers[(i + 1) % len(servers)]
        edges.append((src, dst))
    return edges


def _max_min_fair_share(
    flows: List[List[Link]],
) -> List[float]:
    """Progressive-filling max-min allocation; returns Gb/s per flow.

    Flows crossing zero-capacity (downed) links get 0.
    """
    n = len(flows)
    alloc = [0.0] * n
    active = set()
    for i, path in enumerate(flows):
        if any(l.effective_capacity_gbps <= 0 for l in path):
            alloc[i] = 0.0
        elif path:
            active.add(i)
        else:
            alloc[i] = float("inf")  # intra-server: unconstrained
    remaining: Dict[Tuple[str, str], float] = {}
    users: Dict[Tuple[str, str], set] = {}
    for i in active:
        for link in flows[i]:
            remaining.setdefault(link.key, link.effective_capacity_gbps)
            users.setdefault(link.key, set()).add(i)
    while active:
        # Tightest link determines the next increment.
        rate = min(
            remaining[key] / len(us & active)
            for key, us in users.items()
            if us & active and remaining[key] > 0
        )
        saturated = set()
        for key, us in users.items():
            live = us & active
            if not live:
                continue
            remaining[key] -= rate * len(live)
            if remaining[key] <= 1e-9:
                saturated |= live
        for i in active:
            alloc[i] += rate
        active -= saturated
        if not saturated:
            break  # numerical guard
    return alloc


def ring_allreduce_bandwidth(
    fabric: FabricTopology,
    servers: Sequence[int],
    policy: RoutingPolicy,
) -> AllReduceResult:
    """Bus bandwidth of a single ring all-reduce over ``servers``."""
    return concurrent_allreduce_bandwidths(fabric, [tuple(servers)], policy)[0]


def concurrent_allreduce_bandwidths(
    fabric: FabricTopology,
    groups: Sequence[Sequence[int]],
    policy: RoutingPolicy,
) -> List[AllReduceResult]:
    """Bus bandwidths of several concurrent ring all-reduces.

    Routes every ring edge of every group on every rail (policy-dependent),
    computes a max-min fair allocation over the shared links, and reports
    each group's bandwidth as 8x its slowest edge's per-rail share (the
    ring is gated by its weakest hop).
    """
    if not groups:
        raise ValueError("need at least one collective group")
    for group in groups:
        if len(set(group)) != len(group):
            raise ValueError(f"group has duplicate servers: {group}")

    flow_paths: List[List[Link]] = []
    flow_owner: List[Tuple[int, int]] = []  # (group index, edge index)
    link_load: Dict[Tuple[str, str], int] = {}
    for g_idx, group in enumerate(groups):
        for e_idx, (src, dst) in enumerate(_ring_edges(list(group))):
            for rail in range(fabric.spec.rails):
                path = policy.route(fabric, src, dst, rail, link_load)
                for link in path:
                    link_load[link.key] = link_load.get(link.key, 0) + 1
                flow_paths.append(path)
                flow_owner.append((g_idx, e_idx))
    alloc = _max_min_fair_share(flow_paths)

    results = []
    for g_idx, group in enumerate(groups):
        edges = _ring_edges(list(group))
        if not edges:
            results.append(
                AllReduceResult(
                    group_id=g_idx,
                    servers=tuple(group),
                    bus_bandwidth_gbps=float("inf"),
                    bottleneck_link=None,
                )
            )
            continue
        # Per edge: sum the 8 rails' allocations; ring speed = slowest edge.
        edge_bw: Dict[int, float] = {}
        edge_bottleneck: Dict[int, Optional[str]] = {}
        for flow_idx, (og, oe) in enumerate(flow_owner):
            if og != g_idx:
                continue
            edge_bw[oe] = edge_bw.get(oe, 0.0) + alloc[flow_idx]
            path = flow_paths[flow_idx]
            if path:
                slowest = min(path, key=lambda l: l.effective_capacity_gbps)
                edge_bottleneck[oe] = f"{slowest.src}->{slowest.dst}"
        worst_edge = min(edge_bw, key=lambda e: edge_bw[e])
        results.append(
            AllReduceResult(
                group_id=g_idx,
                servers=tuple(group),
                bus_bandwidth_gbps=edge_bw[worst_edge],
                bottleneck_link=edge_bottleneck.get(worst_edge),
            )
        )
    return results
