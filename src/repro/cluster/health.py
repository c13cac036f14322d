"""Health checks: the cluster's first-line failure detection (Section II-C).

Design notes mirroring the paper:

* Checks run every five minutes on every node and return success, warning,
  or failure.  Simulating ~300k literal check executions per node-year would
  dominate the event budget while almost always returning "success", so the
  monitor is *lazy*: when a component failure occurs we sample which checks
  fire and at what latency within the next check window.  The observable
  event stream is identical to eagerly simulating every check.
* Checks have overlapping coverage ("one check not firing is hopefully
  caught by another") — e.g. a PCIe fault fires the PCIe check, usually the
  XID-79 (fell-off-the-bus) check, and often an IPMI critical interrupt.
* ``NODE_FAIL`` acts as a catch-all: if no node-local check detects the
  fault, the Slurm heartbeat eventually notices the node is unresponsive.
* High-severity failures remove the node (and kill its jobs) immediately;
  low-severity failures drain the node after the current job finishes.
* Checks are introduced over time (Fig. 5): a check only detects failures
  after its ``introduced_at`` date; before that the failure either surfaces
  through an overlapping check or becomes an unattributed NODE_FAIL.
"""

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.components import ComponentType
from repro.cluster.xid import COMPONENT_PRIMARY_XID
from repro.sim.events import EventLog
from repro.sim.timeunits import MINUTE

CHECK_PERIOD = 5 * MINUTE

#: Uniform range of the delay before a failure no check covers is
#: detected by its missed heartbeats.
HEARTBEAT_LATENCY = (1 * MINUTE, 10 * MINUTE)


class CheckSeverity(enum.IntEnum):
    """Ordered severity; higher values preempt lower ones in attribution."""

    WARNING = 1
    LOW = 2
    HIGH = 3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass(frozen=True)
class HealthCheck:
    """A node-health probe and the failure domains it covers."""

    name: str
    components: FrozenSet[ComponentType]
    severity: CheckSeverity
    introduced_at: float = 0.0
    detect_probability: float = 0.97

    def __post_init__(self):
        if not self.components:
            raise ValueError(f"check {self.name} must cover some component")
        if not 0 <= self.detect_probability <= 1:
            raise ValueError("detect_probability must be in [0, 1]")

    def covers(self, component: ComponentType) -> bool:
        return component in self.components

    def enabled(self, t: float) -> bool:
        return t >= self.introduced_at


@dataclass(frozen=True)
class HealthCheckResult:
    """One check firing against a node for a specific incident."""

    check: HealthCheck
    node_id: int
    time: float
    incident_id: int
    xid: Optional[int] = None


def default_health_checks(
    mount_check_introduced_at: float = 0.0,
    ipmi_check_introduced_at: float = 0.0,
) -> List[HealthCheck]:
    """The paper's check suite (Section II-C) with introduction dates.

    High severity: GPU inaccessible, NVLink errors, uncorrectable ECC,
    row-remap failure, PCIe/IB link errors, block devices, missing mounts.
    Low severity: host services, frontend links, thermals-adjacent DIMM
    warnings — these drain rather than kill.
    """
    hs = CheckSeverity.HIGH
    ls = CheckSeverity.LOW
    return [
        HealthCheck("gpu_unavailable", frozenset({ComponentType.GPU}), hs),
        HealthCheck(
            "gpu_memory",
            frozenset({ComponentType.GPU_MEMORY}),
            hs,
        ),
        HealthCheck("nvlink", frozenset({ComponentType.NVLINK}), hs),
        HealthCheck("pcie", frozenset({ComponentType.PCIE}), hs),
        HealthCheck(
            "xid79_fell_off_bus",
            frozenset({ComponentType.PCIE, ComponentType.GPU}),
            hs,
            detect_probability=0.5,
        ),
        HealthCheck("ib_link", frozenset({ComponentType.IB_LINK}), hs),
        HealthCheck(
            "filesystem_mounts",
            frozenset({ComponentType.FILESYSTEM_MOUNT}),
            hs,
            introduced_at=mount_check_introduced_at,
        ),
        HealthCheck(
            "ipmi_critical_interrupt",
            frozenset({ComponentType.PCIE, ComponentType.PSU, ComponentType.CPU}),
            ls,
            introduced_at=ipmi_check_introduced_at,
            detect_probability=0.4,
        ),
        HealthCheck("host_memory", frozenset({ComponentType.HOST_MEMORY}), ls),
        HealthCheck(
            "eth_link",
            frozenset({ComponentType.ETH_LINK, ComponentType.NIC}),
            ls,
        ),
        HealthCheck(
            "system_services",
            frozenset({ComponentType.SYSTEM_SERVICES}),
            ls,
            detect_probability=0.85,
        ),
        HealthCheck(
            "node_diagnostics",
            frozenset(
                {
                    ComponentType.CPU,
                    ComponentType.PSU,
                    ComponentType.BIOS,
                    ComponentType.EUD,
                    ComponentType.OPTICS,
                }
            ),
            ls,
            detect_probability=0.80,
        ),
    ]


class HealthMonitor:
    """Turns component failures into health-check firings and NODE_FAILs."""

    #: Given a primary component failure, additional checks that may fire
    #: and their conditional probabilities (paper's co-occurrence numbers:
    #: 43% of RSC-1 PCIe errors co-occur with XID 79; 21% show all three of
    #: PCIe/XID-79/IPMI; 2% of IB link failures co-occur with GPU events).
    CO_OCCURRENCE: Dict[ComponentType, Tuple[Tuple[str, float], ...]] = {
        ComponentType.PCIE: (("xid79_fell_off_bus", 0.43), ("ipmi_critical_interrupt", 0.49)),
        ComponentType.IB_LINK: (("xid79_fell_off_bus", 0.02),),
        ComponentType.GPU_MEMORY: (("gpu_unavailable", 0.15),),
    }

    def __init__(
        self,
        checks: Sequence[HealthCheck],
        rng: np.random.Generator,
        event_log: Optional[EventLog] = None,
        telemetry=None,
    ):
        if not checks:
            raise ValueError("monitor requires at least one check")
        self.checks = list(checks)
        self._by_name = {c.name: c for c in self.checks}
        if len(self._by_name) != len(self.checks):
            raise ValueError("duplicate health-check names")
        self._rng = rng
        self.event_log = event_log if event_log is not None else EventLog()
        self._incident_seq = itertools.count()
        #: obs.Telemetry bundle; check outcomes are traced when enabled.
        self.telemetry = telemetry

    def new_incident_id(self) -> int:
        return next(self._incident_seq)

    def detect(
        self,
        node_id: int,
        component: ComponentType,
        t: float,
        incident_id: int,
    ) -> Tuple[List[HealthCheckResult], float, bool]:
        """Resolve which checks fire for an incident.

        Returns ``(results, detection_time, heartbeat_only)``.  If no check
        covering the component is enabled or all miss, the NODE_FAIL
        heartbeat catch-all reports at a longer latency and the incident
        remains unattributed (``heartbeat_only=True``).
        """
        results: List[HealthCheckResult] = []
        # Primary checks: every enabled check covering the component rolls
        # its detection probability independently (overlapping coverage).
        for check in self.checks:
            if not check.covers(component) or not check.enabled(t):
                continue
            if self._rng.random() < check.detect_probability:
                results.append(self._fire(check, node_id, t, incident_id, component))
        # Co-occurring secondary checks.
        for name, prob in self.CO_OCCURRENCE.get(component, ()):
            check = self._by_name.get(name)
            if check is None or not check.enabled(t):
                continue
            if any(r.check.name == name for r in results):
                continue
            if self._rng.random() < prob:
                results.append(self._fire(check, node_id, t, incident_id, component))
        if results:
            detection_time = min(r.time for r in results)
            return results, detection_time, False
        lo, hi = HEARTBEAT_LATENCY
        detection_time = t + self._rng.uniform(lo, hi)
        self.event_log.emit(
            detection_time,
            "health.node_fail_heartbeat",
            f"node-{node_id:05d}",
            node_id=node_id,
            incident_id=incident_id,
            component=component.value,
        )
        return [], detection_time, True

    def _fire(
        self,
        check: HealthCheck,
        node_id: int,
        t: float,
        incident_id: int,
        component: ComponentType,
    ) -> HealthCheckResult:
        latency = self._rng.uniform(0, CHECK_PERIOD)
        xid = COMPONENT_PRIMARY_XID.get(component)
        result = HealthCheckResult(
            check=check,
            node_id=node_id,
            time=t + latency,
            incident_id=incident_id,
            xid=xid,
        )
        self.event_log.emit(
            result.time,
            "health.check_failed",
            f"node-{node_id:05d}",
            node_id=node_id,
            check=check.name,
            severity=int(check.severity),
            component=component.value,
            incident_id=incident_id,
            xid=xid,
        )
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.metrics.counter(
                "health_checks_fired_total", check=check.name
            ).inc()
        return result

    def max_severity(self, results: Sequence[HealthCheckResult]) -> CheckSeverity:
        """Highest severity across firing checks (HIGH wins attribution)."""
        if not results:
            return CheckSeverity.HIGH  # heartbeat NODE_FAIL removes the node
        return max(r.check.severity for r in results)
