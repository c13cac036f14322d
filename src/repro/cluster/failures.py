"""Failure injection: per-node Poisson processes over the hazard model.

Each node carries one pending "next failure" event whose rate is the node's
current total hazard.  Because hazards are piecewise-constant in time
(baseline + episodic regimes), we re-arm every node's pending event at each
regime boundary; between boundaries the exponential draw is exact.

When a failure fires we sample the failing component (proportional to its
share of the node's hazard), classify it transient vs permanent, run health
detection, and hand the resulting :class:`FailureIncident` to the cluster's
incident callback (which notifies the scheduler and remediation).
"""

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.components import ComponentType, FailureClass
from repro.cluster.hazards import HazardModel
from repro.cluster.health import CheckSeverity, HealthCheckResult, HealthMonitor
from repro.cluster.node import Node, NodeState
from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.timeunits import DAY


@dataclass
class FailureIncident:
    """One hardware/system failure on one node, with its detection record."""

    incident_id: int
    node_id: int
    component: ComponentType
    failure_class: FailureClass
    time: float
    detected_checks: List[HealthCheckResult] = field(default_factory=list)
    detection_time: float = 0.0
    heartbeat_only: bool = False
    severity: CheckSeverity = CheckSeverity.HIGH

    @property
    def attributed(self) -> bool:
        """Whether any health check identified a cause (vs bare NODE_FAIL)."""
        return bool(self.detected_checks)

    @property
    def check_names(self) -> List[str]:
        return [r.check.name for r in self.detected_checks]


class FailureInjector:
    """Drives failures for a set of nodes on the simulation engine."""

    def __init__(
        self,
        engine: Engine,
        nodes: Dict[int, Node],
        hazards: HazardModel,
        monitor: HealthMonitor,
        rng: np.random.Generator,
        on_incident: Optional[Callable[[FailureIncident], None]] = None,
        telemetry=None,
    ):
        self.engine = engine
        self.nodes = nodes
        self.hazards = hazards
        self.monitor = monitor
        self._rng = rng
        self.on_incident = on_incident
        #: obs.Telemetry bundle; injections/attributions are traced when on.
        self.telemetry = telemetry
        self.incidents: List[FailureIncident] = []
        self._pending: Dict[int, ScheduledEvent] = {}

    def start(self) -> None:
        """Arm every node and schedule re-arms at regime boundaries."""
        self._arm_batch(list(self.nodes))
        for boundary in self.hazards.regime_boundaries():
            if boundary > self.engine.now:
                self.engine.schedule_at(
                    boundary, self._rearm_all, label="hazard-regime-boundary"
                )

    def _rearm_all(self) -> None:
        self._arm_batch(list(self.nodes))

    def _arm_batch(self, node_ids: List[int]) -> None:
        """Arm many nodes with one vectorized exponential draw.

        numpy fills array draws from the same bit stream as repeated
        scalar draws, so the sampled failure times are bit-identical to
        arming each node individually — only the per-event Python
        overhead (N generator calls, N rate lookups) is removed.
        """
        for node_id in node_ids:
            pending = self._pending.pop(node_id, None)
            if pending is not None:
                pending.cancel()
        rates = self.hazards.total_rates(node_ids, self.engine.now)
        armable = [
            (nid, rate) for nid, rate in zip(node_ids, rates) if rate > 0
        ]
        if not armable:
            return
        scales = np.array([DAY / rate for _nid, rate in armable])
        gaps = self._rng.exponential(scales)
        for (node_id, _rate), gap in zip(armable, gaps):
            self._pending[node_id] = self.engine.schedule_after(
                float(gap),
                lambda nid=node_id: self._fire(nid),
                label=f"failure:{node_id}",
            )

    def _arm(self, node_id: int) -> None:
        pending = self._pending.pop(node_id, None)
        if pending is not None:
            pending.cancel()
        rate_per_day = self.hazards.total_rate(node_id, self.engine.now)
        if rate_per_day <= 0:
            return
        gap = self._rng.exponential(DAY / rate_per_day)
        self._pending[node_id] = self.engine.schedule_after(
            gap, lambda nid=node_id: self._fire(nid), label=f"failure:{node_id}"
        )

    def _fire(self, node_id: int) -> None:
        self._pending.pop(node_id, None)
        node = self.nodes[node_id]
        t = self.engine.now
        if node.state is NodeState.REMEDIATION:
            # A node on the repair bench cannot produce a fleet-visible
            # failure; try again once it is back (re-arm keeps the process
            # alive without special-casing return-to-service).
            self._arm(node_id)
            return
        component = self.hazards.sample_component(node_id, t, self._rng)
        p_transient = self.hazards.transient_probability(component)
        failure_class = (
            FailureClass.TRANSIENT
            if self._rng.random() < p_transient
            else FailureClass.PERMANENT
        )
        incident_id = self.monitor.new_incident_id()
        results, detection_time, heartbeat_only = self.monitor.detect(
            node_id, component, t, incident_id
        )
        incident = FailureIncident(
            incident_id=incident_id,
            node_id=node_id,
            component=component,
            failure_class=failure_class,
            time=t,
            detected_checks=results,
            detection_time=detection_time,
            heartbeat_only=heartbeat_only,
            severity=self.monitor.max_severity(results),
        )
        self.incidents.append(incident)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            metrics = telemetry.metrics
            metrics.counter(
                "failures_injected_total", component=component.value
            ).inc()
            metrics.counter(
                "failures_attributed_total"
                if incident.attributed
                else "failures_unattributed_total"
            ).inc()
        if component is ComponentType.GPU or component is ComponentType.GPU_MEMORY:
            node.counters.xid_cnt += 1
        elif any(r.xid is not None for r in results):
            node.counters.xid_cnt += 1
        if self.on_incident is not None:
            self.on_incident(incident)
        self._arm(node_id)

    def node_rearm(self, node_id: int) -> None:
        """Public re-arm hook (used when a node returns from remediation)."""
        self._arm(node_id)

    def stop(self) -> None:
        for pending in self._pending.values():
            pending.cancel()
        self._pending.clear()
