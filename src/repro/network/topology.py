"""The rail-optimized backend fabric (Fig. 2).

Layout, following Section II-B: every server exposes 8 HCAs ("rails"), one
per local GPU rank.  Within a pod (10 racks x 2 servers = 20 servers), all
rail-``r`` HCAs connect to the pod's rail-``r`` leaf switch, so same-rank
GPUs talk through a single switch.  Each rail's leaf switches connect
upward to a group of spine switches dedicated to that rail; pod-to-pod
traffic crosses leaf -> spine -> leaf.

Node naming: ``srv-<id>`` servers, ``leaf-p<pod>-r<rail>`` leaves,
``spine-r<rail>-<k>`` spines.  Links are directed (both directions created
with shared characteristics but independent error state, as in real
fabrics where one direction of a cable can degrade).
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.network.links import DEFAULT_LINK_CAPACITY_GBPS, Link

RAILS = 8
SERVERS_PER_POD = 20


@dataclass(frozen=True)
class FabricSpec:
    """Shape of the backend fabric."""

    n_servers: int
    rails: int = RAILS
    servers_per_pod: int = SERVERS_PER_POD
    spines_per_rail: int = 4
    link_capacity_gbps: float = DEFAULT_LINK_CAPACITY_GBPS

    def __post_init__(self):
        if self.n_servers <= 0:
            raise ValueError("n_servers must be positive")
        if self.rails <= 0 or self.servers_per_pod <= 0 or self.spines_per_rail <= 0:
            raise ValueError("fabric dimensions must be positive")

    @property
    def n_pods(self) -> int:
        return (self.n_servers + self.servers_per_pod - 1) // self.servers_per_pod


class FabricTopology:
    """The live fabric: named links with mutable health state."""

    def __init__(self, spec: FabricSpec):
        self.spec = spec
        self.links: Dict[Tuple[str, str], Link] = {}
        for server in range(spec.n_servers):
            pod = server // spec.servers_per_pod
            for rail in range(spec.rails):
                leaf = self.leaf_name(pod, rail)
                self._add_bidirectional(self.server_port(server, rail), leaf)
        for pod in range(self.spec.n_pods):
            for rail in range(spec.rails):
                leaf = self.leaf_name(pod, rail)
                for k in range(spec.spines_per_rail):
                    self._add_bidirectional(leaf, self.spine_name(rail, k))

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    @staticmethod
    def server_port(server: int, rail: int) -> str:
        return f"srv-{server:04d}-r{rail}"

    @staticmethod
    def leaf_name(pod: int, rail: int) -> str:
        return f"leaf-p{pod:02d}-r{rail}"

    @staticmethod
    def spine_name(rail: int, k: int) -> str:
        return f"spine-r{rail}-{k}"

    def pod_of(self, server: int) -> int:
        return server // self.spec.servers_per_pod

    # ------------------------------------------------------------------
    # construction & access
    # ------------------------------------------------------------------
    def _add_bidirectional(self, a: str, b: str) -> None:
        for src, dst in ((a, b), (b, a)):
            self.links[(src, dst)] = Link(
                src=src, dst=dst, capacity_gbps=self.spec.link_capacity_gbps
            )

    def link(self, src: str, dst: str) -> Link:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src} -> {dst} in fabric") from None

    def spine_candidates(self, rail: int) -> List[str]:
        return [
            self.spine_name(rail, k) for k in range(self.spec.spines_per_rail)
        ]

    def path(self, src_server: int, dst_server: int, rail: int, spine: str = None) -> List[Link]:
        """Links crossed from ``src_server`` to ``dst_server`` on one rail.

        Same-pod traffic stays under the leaf (two hops); cross-pod traffic
        needs a ``spine`` choice (the routing policy's job).
        """
        if src_server == dst_server:
            return []
        src_pod, dst_pod = self.pod_of(src_server), self.pod_of(dst_server)
        src_port = self.server_port(src_server, rail)
        dst_port = self.server_port(dst_server, rail)
        src_leaf = self.leaf_name(src_pod, rail)
        dst_leaf = self.leaf_name(dst_pod, rail)
        if src_pod == dst_pod:
            return [self.link(src_port, src_leaf), self.link(src_leaf, dst_port)]
        if spine is None:
            raise ValueError(
                f"cross-pod path {src_server}->{dst_server} requires a spine choice"
            )
        return [
            self.link(src_port, src_leaf),
            self.link(src_leaf, spine),
            self.link(spine, dst_leaf),
            self.link(dst_leaf, dst_port),
        ]

    def all_links(self) -> List[Link]:
        return list(self.links.values())

    def leaf_spine_links(self) -> List[Link]:
        """The contended tier: leaf <-> spine links in both directions."""
        return [
            link
            for link in self.links.values()
            if link.src.startswith("leaf-") and link.dst.startswith("spine-")
            or link.src.startswith("spine-") and link.dst.startswith("leaf-")
        ]

    def reset_faults(self) -> None:
        for link in self.links.values():
            link.reset()

    def __repr__(self) -> str:
        return (
            f"FabricTopology(servers={self.spec.n_servers}, "
            f"pods={self.spec.n_pods}, rails={self.spec.rails}, "
            f"links={len(self.links)})"
        )
