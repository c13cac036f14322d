"""Cluster hardware substrate.

Models the paper's fleet at the level its analyses need: DGX-style nodes
(8 GPUs behind an NVSwitch, NICs on a rail-optimized fabric, DIMMs, PSU,
filesystem mounts), per-component failure processes with transient /
permanent / lemon behaviour, the periodic health-check layer with severity
tiers and overlapping signals, and the remediation workflow (tickets, GPU
swaps, return-to-service).
"""

from repro.cluster.components import (
    ComponentType,
    FailureClass,
    NODE_COMPONENT_COUNTS,
)
from repro.cluster.xid import XidError, XID_CATALOG
from repro.cluster.node import Node, NodeState
from repro.cluster.hazards import HazardModel, HazardRegime, ComponentHazard
from repro.cluster.failures import FailureIncident, FailureInjector
from repro.cluster.health import (
    CheckSeverity,
    HealthCheck,
    HealthCheckResult,
    HealthMonitor,
    default_health_checks,
)
from repro.cluster.remediation import RemediationWorkflow, RepairTicket
from repro.cluster.cluster import Cluster, ClusterSpec

__all__ = [
    "ComponentType",
    "FailureClass",
    "NODE_COMPONENT_COUNTS",
    "XidError",
    "XID_CATALOG",
    "Node",
    "NodeState",
    "HazardModel",
    "HazardRegime",
    "ComponentHazard",
    "FailureIncident",
    "FailureInjector",
    "CheckSeverity",
    "HealthCheck",
    "HealthCheckResult",
    "HealthMonitor",
    "default_health_checks",
    "RemediationWorkflow",
    "RepairTicket",
    "Cluster",
    "ClusterSpec",
]
