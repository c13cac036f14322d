"""Rail-optimized InfiniBand fabric model with adaptive routing.

Reproduces the Section IV-B experiments at flow level: a topology graph
(servers x 8 rails -> per-pod rail switches -> spine switches), link-level
fault injection (bit-error-rate degradation and flaps), static
(deterministic-hash) vs adaptive (load/health-aware) routing, and a ring
all-reduce bandwidth estimator with max-min fair link sharing.
"""

from repro.network.topology import FabricTopology, FabricSpec
from repro.network.links import Link, LinkState
from repro.network.routing import RoutingPolicy, StaticRouting, AdaptiveRouting
from repro.network.collectives import (
    AllReduceResult,
    ring_allreduce_bandwidth,
    concurrent_allreduce_bandwidths,
)
from repro.network.faults import inject_bit_errors, flap_links, restore_all
from repro.network.shield import (
    DEFAULT_SHIELD_BER_THRESHOLD,
    ShieldRouting,
    apply_shield_link_faulting,
)

__all__ = [
    "FabricTopology",
    "FabricSpec",
    "Link",
    "LinkState",
    "RoutingPolicy",
    "StaticRouting",
    "AdaptiveRouting",
    "AllReduceResult",
    "ring_allreduce_bandwidth",
    "concurrent_allreduce_bandwidths",
    "inject_bit_errors",
    "flap_links",
    "restore_all",
    "DEFAULT_SHIELD_BER_THRESHOLD",
    "ShieldRouting",
    "apply_shield_link_faulting",
]
