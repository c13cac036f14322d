"""The cluster facade: nodes + hazards + health + remediation, wired up.

`Cluster` is what the scheduler talks to.  It owns the node inventory and
the failure machinery, and it surfaces exactly two callbacks upward:

* ``on_node_down(node, incident)`` — a high-severity check (or heartbeat
  NODE_FAIL) removed the node; any resident job must be interrupted now.
* ``on_node_available(node)`` — a node returned from remediation and may be
  scheduled again.

Low-severity incidents drain: the node stops accepting new jobs but the
resident job finishes, after which the node goes to remediation — matching
Section II-C's two-tier severity policy.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.components import ComponentType, GPUS_PER_NODE
from repro.cluster.failures import FailureIncident, FailureInjector
from repro.cluster.hazards import (
    HazardModel,
    HazardRegime,
    LemonSpec,
    RSC1_COMPONENT_RATES,
    RSC2_COMPONENT_RATES,
)
from repro.cluster.health import (
    CheckSeverity,
    HealthMonitor,
    default_health_checks,
)
from repro.cluster.node import Node, NodeState
from repro.cluster.remediation import RemediationWorkflow
from repro.core.indices import SortedIntSet
from repro.sim.engine import Engine
from repro.sim.events import EventLog
from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY

SERVERS_PER_RACK = 2
RACKS_PER_POD = 10
SERVERS_PER_POD = SERVERS_PER_RACK * RACKS_PER_POD

#: Table II — fraction of lemon-node root causes.
LEMON_ROOT_CAUSE_MIX: Tuple[Tuple[ComponentType, float], ...] = (
    (ComponentType.GPU, 0.282),
    (ComponentType.HOST_MEMORY, 0.205),  # DIMM
    (ComponentType.PCIE, 0.154),
    (ComponentType.EUD, 0.103),
    (ComponentType.NIC, 0.077),
    (ComponentType.BIOS, 0.077),
    (ComponentType.PSU, 0.051),
    (ComponentType.CPU, 0.026),
    (ComponentType.OPTICS, 0.026),
)


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of a cluster campaign's hardware side."""

    name: str
    n_nodes: int
    component_rates: Dict[ComponentType, float]
    campaign_days: float = 330.0
    lemon_fraction: float = 0.012
    #: Target failure rate of a lemon node's faulty component, failures/day.
    #: Lemons "cause repeating job failures" (Section IV-A): roughly one
    #: incident per week or two, far above the fleet's ~0.0065/day.
    lemon_fail_per_day: float = 0.12
    enable_episodic_regimes: bool = True
    mount_check_introduced_frac: float = 0.30
    ipmi_check_introduced_frac: float = 0.10
    #: Spurious warning-severity check firings per node-day.  Calibrated
    #: so that well under 1% of successfully completed jobs observe a
    #: failed check (Section II-C's false-positive budget).
    false_positive_rate_per_node_day: float = 0.01

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if not 0 <= self.lemon_fraction < 1:
            raise ValueError("lemon_fraction must be in [0, 1)")
        if self.campaign_days <= 0:
            raise ValueError("campaign_days must be positive")

    @property
    def n_gpus(self) -> int:
        return self.n_nodes * GPUS_PER_NODE

    @property
    def span_seconds(self) -> float:
        return self.campaign_days * DAY

    @classmethod
    def rsc1_like(
        cls, n_nodes: int = 2000, campaign_days: float = 330.0, **kwargs
    ) -> "ClusterSpec":
        """An RSC-1-shaped cluster (16k GPUs at full scale, r_f ~ 6.5/1k nd)."""
        return cls(
            name="RSC-1",
            n_nodes=n_nodes,
            component_rates=dict(RSC1_COMPONENT_RATES),
            campaign_days=campaign_days,
            lemon_fraction=kwargs.pop("lemon_fraction", 0.012),
            **kwargs,
        )

    @classmethod
    def rsc2_like(
        cls, n_nodes: int = 1000, campaign_days: float = 330.0, **kwargs
    ) -> "ClusterSpec":
        """An RSC-2-shaped cluster (8k GPUs at full scale, r_f ~ 2.34/1k nd)."""
        return cls(
            name="RSC-2",
            n_nodes=n_nodes,
            component_rates=dict(RSC2_COMPONENT_RATES),
            campaign_days=campaign_days,
            lemon_fraction=kwargs.pop("lemon_fraction", 0.017),
            **kwargs,
        )


class Cluster:
    """Live cluster: node inventory plus the failure/health/repair stack."""

    def __init__(
        self,
        spec: ClusterSpec,
        engine: Engine,
        rngs: RngStreams,
        event_log: Optional[EventLog] = None,
        telemetry=None,
    ):
        self.spec = spec
        self.engine = engine
        self.event_log = event_log if event_log is not None else EventLog()
        #: obs.Telemetry bundle, forwarded to the health monitor and the
        #: failure injector (None or disabled = zero-overhead path).
        self.telemetry = telemetry
        self.nodes: Dict[int, Node] = {
            i: Node(node_id=i, rack_id=i // SERVERS_PER_RACK, pod_id=i // SERVERS_PER_POD)
            for i in range(spec.n_nodes)
        }
        # Availability indices, updated O(log n) per node transition via
        # Node.on_transition.  Invariants (see docs/PERFORMANCE.md):
        #   _schedulable_ids  == {id : state HEALTHY and not quarantined}
        #   _quarantined_ids  == {id : quarantined}
        #   _remediation_count == |{id : state REMEDIATION}|
        self._schedulable_ids = SortedIntSet(self.nodes)
        self._quarantined_ids = SortedIntSet()
        self._remediation_count = 0
        for node in self.nodes.values():
            node.on_transition = self._on_node_transition
        self.on_node_down: Optional[Callable[[Node, FailureIncident], None]] = None
        self.on_node_available: Optional[Callable[[Node], None]] = None
        self._drain_incident: Dict[int, FailureIncident] = {}

        span = spec.span_seconds
        lemon_rng = rngs.stream(f"{spec.name}.lemons")
        self.lemon_specs = self._draw_lemons(lemon_rng)
        regimes = self._build_regimes(lemon_rng) if spec.enable_episodic_regimes else []
        self.hazards = HazardModel.from_rates(
            spec.component_rates, regimes=regimes, lemons=self.lemon_specs
        )
        checks = default_health_checks(
            mount_check_introduced_at=spec.mount_check_introduced_frac * span,
            ipmi_check_introduced_at=spec.ipmi_check_introduced_frac * span,
        )
        self.monitor = HealthMonitor(
            checks,
            rngs.stream(f"{spec.name}.health"),
            event_log=self.event_log,
            telemetry=telemetry,
        )
        self.remediation = RemediationWorkflow(
            engine,
            self.nodes,
            rngs.stream(f"{spec.name}.repair"),
            event_log=self.event_log,
            on_node_restored=self._node_restored,
        )
        self._fp_rng = rngs.stream(f"{spec.name}.false_positives")
        self.injector = FailureInjector(
            engine,
            self.nodes,
            self.hazards,
            self.monitor,
            rngs.stream(f"{spec.name}.failures"),
            on_incident=self._handle_incident,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _draw_lemons(self, rng: np.random.Generator) -> List[LemonSpec]:
        n_lemons = int(round(self.spec.lemon_fraction * self.spec.n_nodes))
        if n_lemons == 0:
            return []
        node_ids = rng.choice(self.spec.n_nodes, size=n_lemons, replace=False)
        causes = [c for c, _p in LEMON_ROOT_CAUSE_MIX]
        probs = np.array([p for _c, p in LEMON_ROOT_CAUSE_MIX])
        probs = probs / probs.sum()
        specs = []
        for node_id in node_ids:
            cause = causes[int(rng.choice(len(causes), p=probs))]
            # The multiplier is derived so the faulty component reaches the
            # target absolute rate regardless of its (often tiny) baseline.
            base_per_day = self.spec.component_rates[cause] / 1000.0
            multiplier = max(1.0, self.spec.lemon_fail_per_day / base_per_day)
            specs.append(
                LemonSpec(
                    node_id=int(node_id),
                    component=cause,
                    multiplier=multiplier,
                )
            )
        return specs

    def _build_regimes(self, rng: np.random.Generator) -> List[HazardRegime]:
        """Fig. 5's episodic failure waves, scaled to the campaign span."""
        span = self.spec.span_seconds
        regimes = [
            # Late-2023 GSP-timeout driver regression, fixed by a patch.
            HazardRegime(
                name="gsp_driver_bug",
                component=ComponentType.GPU,
                multiplier=6.0,
                start=0.0,
                end=0.25 * span,
            ),
            # Mount instability wave (became visible once the check landed).
            HazardRegime(
                name="mount_wave",
                component=ComponentType.FILESYSTEM_MOUNT,
                multiplier=3.0,
                start=0.28 * span,
                end=0.55 * span,
            ),
        ]
        # Summer-2024 IB-link spike from a handful of offending nodes.
        n_offenders = max(2, self.spec.n_nodes // 300)
        offenders = frozenset(
            int(i)
            for i in rng.choice(self.spec.n_nodes, size=n_offenders, replace=False)
        )
        regimes.append(
            HazardRegime(
                name="ib_link_spike",
                component=ComponentType.IB_LINK,
                multiplier=220.0,
                start=0.62 * span,
                end=0.72 * span,
                node_ids=offenders,
            )
        )
        return regimes

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin failure injection (call once, before running the engine)."""
        self.injector.start()
        fp_rate = self.spec.false_positive_rate_per_node_day
        if fp_rate > 0:
            from repro.sim.processes import PoissonProcess

            fleet_rate_per_second = fp_rate * self.spec.n_nodes / DAY
            self._fp_process = PoissonProcess(
                self.engine,
                fleet_rate_per_second,
                self._fire_false_positive,
                self._fp_rng,
                label="health-false-positive",
            )

    def _fire_false_positive(self) -> None:
        """Emit a spurious warning-severity check on a random node.

        These are pure observation noise: no incident exists, no job is
        touched, but the event lands in the health stream where it can
        (rarely) confuse attribution — exactly the failure mode the
        paper's <1% calibration bounds.
        """
        node_id = int(self._fp_rng.integers(0, self.spec.n_nodes))
        warning_checks = [
            c
            for c in self.monitor.checks
            if int(c.severity) < int(CheckSeverity.HIGH)
            and c.enabled(self.engine.now)
        ]
        if not warning_checks:
            return
        check = warning_checks[int(self._fp_rng.integers(0, len(warning_checks)))]
        component = next(iter(check.components))
        self.event_log.emit(
            self.engine.now,
            "health.check_failed",
            f"node-{node_id:05d}",
            node_id=node_id,
            check=check.name,
            severity=int(check.severity),
            component=component.value,
            incident_id=-1,  # no underlying incident
            xid=None,
            false_positive=True,
        )

    def _handle_incident(self, incident: FailureIncident) -> None:
        node = self.nodes[incident.node_id]
        immediate = (
            incident.severity is CheckSeverity.HIGH or incident.heartbeat_only
        )
        self.event_log.emit(
            incident.time,
            "cluster.incident",
            node.name,
            node_id=node.node_id,
            incident_id=incident.incident_id,
            component=incident.component.value,
            failure_class=incident.failure_class.value,
            severity=int(incident.severity),
            attributed=incident.attributed,
            checks=incident.check_names,
            immediate=immediate,
        )
        if immediate:
            # Drop any deferred drain incident first: job teardown below
            # releases the node's jobs, and release_job would otherwise
            # race this path into a *second* remediation ticket.
            self._drain_incident.pop(node.node_id, None)
            if self.on_node_down is not None and node.busy:
                self.on_node_down(node, incident)
            if node.state is not NodeState.REMEDIATION:
                self.remediation.begin_remediation(node, incident)
        else:
            node.start_drain()
            if not node.busy:
                # Idle draining node goes straight to the repair bench.
                self.remediation.begin_remediation(node, incident)
            else:
                self._drain_incident[node.node_id] = incident

    def release_job(self, node_id: int, job_id: int) -> None:
        """Scheduler hook: ``job_id`` vacated this node.

        If the node was draining and is now empty, its deferred incident
        sends it to remediation.
        """
        node = self.nodes[node_id]
        node.release(job_id)
        if node.state is NodeState.DRAINING and not node.busy:
            incident = self._drain_incident.pop(node_id, None)
            if incident is not None:
                self.remediation.begin_remediation(node, incident)
            else:
                node.enter_remediation()
                node.counters.out_count += 1
                self.engine.schedule_after(
                    self.remediation.transient_repair_median,
                    lambda n=node: self._finish_untracked_repair(n),
                    label=f"drain-repair:{node_id}",
                )

    def _finish_untracked_repair(self, node: Node) -> None:
        node.return_to_service()
        self._node_restored(node)

    def _node_restored(self, node: Node) -> None:
        self.injector.node_rearm(node.node_id)
        if self.on_node_available is not None:
            self.on_node_available(node)

    # ------------------------------------------------------------------
    # availability indices
    # ------------------------------------------------------------------
    def _on_node_transition(
        self, node: Node, old_state: NodeState, new_state: NodeState
    ) -> None:
        """Node availability changed: patch the indices, O(log n)."""
        node_id = node.node_id
        if node.is_schedulable():
            self._schedulable_ids.add(node_id)
        else:
            self._schedulable_ids.discard(node_id)
        if node.quarantined:
            self._quarantined_ids.add(node_id)
        else:
            self._quarantined_ids.discard(node_id)
        if old_state is not new_state:
            if new_state is NodeState.REMEDIATION:
                self._remediation_count += 1
            elif old_state is NodeState.REMEDIATION:
                self._remediation_count -= 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def schedulable_nodes(self) -> List[Node]:
        """Healthy, non-quarantined nodes, in id order (deterministic)."""
        nodes = self.nodes
        return [nodes[i] for i in self._schedulable_ids]

    def schedulable_node_ids(self) -> SortedIntSet:
        """The live schedulable-id index (ascending iteration, O(1))."""
        return self._schedulable_ids

    def healthy_node_count(self) -> int:
        return self.spec.n_nodes - self._remediation_count

    def quarantined_node_ids(self) -> List[int]:
        """Nodes currently quarantined by lemon detection, ascending."""
        return self._quarantined_ids.as_list()

    def lemon_node_ids(self) -> List[int]:
        """Ground-truth lemon ids (for evaluating the detector)."""
        return sorted(spec.node_id for spec in self.lemon_specs)

    def __repr__(self) -> str:
        return (
            f"Cluster({self.spec.name}, nodes={self.spec.n_nodes}, "
            f"gpus={self.spec.n_gpus})"
        )
