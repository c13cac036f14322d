"""Fleet health scoring: the PVC ``getClusterHealth`` weighted-delta model.

The paper's operational claim is that fleet reliability must be
*attributable* — a single number is only useful when every point it lost
names the condition that took it.  This module reproduces that shape:
a :class:`FleetHealthScorer` starts from a perfect 100, subtracts a
fixed delta per observed condition instance (``DEFAULT_HEALTH_DELTA_MAP``),
clamps to ``[0, 100]``, and keeps one human-readable message per applied
condition, exactly the contract of PVC's ``getClusterHealth`` endpoint.

Inputs arrive as a :class:`HealthSignals` snapshot — a pure-data view of
the fleet assembled from whichever layer is observing:

* live sessions (:meth:`HealthSignals.from_analytics`): FleetGauges'
  down/quarantined sets, the lemon estimator's provisional suspects, and
  the tracer's self-disable state;
* telemetry directories (:meth:`HealthSignals.from_summary`): failure
  injections by component, resilience counters, cache quarantines, and
  the tracer's self-disable state;
* anything else that can fill the dataclass (the planned ``repro.serve``
  endpoint reads this directly).

Scoring is pure arithmetic over the snapshot: no RNG, no clocks, no
side effects — it can run inside an instrumented campaign without
perturbing anything.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Failure-domain components treated as *network* incidents by the
#: summary adapter (everything else counts as node hardware).
NETWORK_COMPONENTS = frozenset(
    {"ib_link", "eth_link", "nic", "nvlink", "optics"}
)

#: Weighted-delta map, PVC ``getClusterHealth`` style: condition name ->
#: points subtracted per instance.
DEFAULT_HEALTH_DELTA_MAP: Dict[str, float] = {
    # fleet capacity
    "hardware_failure": 4.0,   # node out in remediation / hw incident
    "network_incident": 6.0,   # network-domain failure (blast radius >1)
    "heartbeat_only_failure": 2.0,  # unattributed: detection gap
    # quarantine
    "quarantined_node": 5.0,   # lemon-quarantined node
    "lemon_suspect": 1.0,      # provisional suspect (not yet pulled)
    # runtime / recovery machinery
    "breaker_open": 25.0,      # pooled execution degraded to inline
    "cache_quarantine": 3.0,   # corrupt trace-cache entry quarantined
    "worker_respawn": 2.0,     # worker process died and was respawned
    "retry": 0.5,              # attempt retried (transient fault)
    "timeout": 2.0,            # attempt reclaimed by the watchdog
    # observability
    "tracer_self_disabled": 10.0,  # telemetry gave up on its sink
}

#: Condition -> sub-score component; every condition must appear here so
#: per-component scores partition the delta map.
COMPONENT_BY_CONDITION: Dict[str, str] = {
    "hardware_failure": "capacity",
    "network_incident": "network",
    "heartbeat_only_failure": "capacity",
    "quarantined_node": "quarantine",
    "lemon_suspect": "quarantine",
    "breaker_open": "runtime",
    "cache_quarantine": "runtime",
    "worker_respawn": "runtime",
    "retry": "runtime",
    "timeout": "runtime",
    "tracer_self_disabled": "observability",
}

#: Cap on the points any single condition may subtract in total, so one
#: noisy counter (hundreds of retries) degrades its component without
#: single-handedly zeroing the fleet score.
DEFAULT_CONDITION_CAP = 40.0


def tracer_self_disabled(telemetry) -> bool:
    """Whether ``telemetry``'s tracer gave up on its sink (None: no)."""
    return bool(
        telemetry is not None
        and getattr(telemetry.tracer, "self_disabled", False)
    )


@dataclass(frozen=True)
class HealthSignals:
    """Point-in-time fleet state, as counts of scoreable conditions."""

    n_nodes: int
    nodes_down: int = 0
    nodes_quarantined: int = 0
    hardware_incidents: int = 0
    network_incidents: int = 0
    heartbeat_only_failures: int = 0
    lemon_suspects: Tuple[int, ...] = ()
    breaker_open: bool = False
    cache_quarantined: int = 0
    worker_respawns: int = 0
    retries: int = 0
    timeouts: int = 0
    tracer_self_disabled: bool = False

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")

    # ------------------------------------------------------------------
    # adapters
    # ------------------------------------------------------------------
    @classmethod
    def from_analytics(cls, analytics) -> "HealthSignals":
        """Snapshot a :class:`repro.live.LiveAnalytics` session."""
        fleet = analytics.fleet
        return cls(
            n_nodes=analytics.config.n_nodes,
            nodes_down=fleet.nodes_down,
            nodes_quarantined=fleet.nodes_quarantined,
            hardware_incidents=fleet.nodes_down,
            lemon_suspects=tuple(analytics.lemons.suspects()),
            tracer_self_disabled=tracer_self_disabled(analytics.telemetry),
        )

    @classmethod
    def from_summary(cls, summary, n_nodes: int) -> "HealthSignals":
        """Build signals from an :class:`repro.obs.summary.ObsSummary`.

        Metrics snapshots carry injections and recovery actions but not
        remediation state, so ``nodes_down`` stays 0 on this path; the
        failure-injection and resilience counters carry the signal.
        """
        network = 0
        hardware = 0
        for component, count in summary.failures_by_component.items():
            if component in NETWORK_COMPONENTS:
                network += count
            else:
                hardware += count
        resilience = summary.resilience
        return cls(
            n_nodes=n_nodes,
            nodes_quarantined=summary.lemon_flags,
            hardware_incidents=hardware,
            network_incidents=network,
            heartbeat_only_failures=summary.failures_unattributed,
            breaker_open=bool(
                resilience.get("resilience_circuit_open_total", 0)
            ),
            cache_quarantined=resilience.get(
                "resilience_cache_quarantined_total", 0
            ),
            worker_respawns=resilience.get(
                "resilience_worker_respawns_total", 0
            ),
            retries=resilience.get("resilience_retries_total", 0),
            timeouts=resilience.get("resilience_timeouts_total", 0),
            tracer_self_disabled=bool(
                resilience.get("tracer_self_disabled", 0)
            ),
        )

    def condition_counts(self) -> Dict[str, int]:
        """How many instances of each scoreable condition are present."""
        return {
            "hardware_failure": max(
                self.hardware_incidents, self.nodes_down
            ),
            "network_incident": self.network_incidents,
            "heartbeat_only_failure": self.heartbeat_only_failures,
            "quarantined_node": self.nodes_quarantined,
            "lemon_suspect": len(self.lemon_suspects),
            "breaker_open": int(self.breaker_open),
            "cache_quarantine": self.cache_quarantined,
            "worker_respawn": self.worker_respawns,
            "retry": self.retries,
            "timeout": self.timeouts,
            "tracer_self_disabled": int(self.tracer_self_disabled),
        }


#: Message template per condition (``{n}`` = instance count,
#: ``{points}`` = subtracted points).
_MESSAGES: Dict[str, str] = {
    "hardware_failure": "{n} node(s) down with hardware failures",
    "network_incident": "{n} network incident(s)",
    "heartbeat_only_failure": "{n} failure(s) caught only by heartbeat",
    "quarantined_node": "{n} node(s) quarantined as lemons",
    "lemon_suspect": "{n} provisional lemon suspect(s)",
    "breaker_open": "circuit breaker open: pooled execution degraded",
    "cache_quarantine": "{n} corrupt cache entr(ies) quarantined",
    "worker_respawn": "{n} worker process(es) died and respawned",
    "retry": "{n} attempt retr(ies)",
    "timeout": "{n} attempt timeout(s)",
    "tracer_self_disabled": "telemetry tracer disabled itself (sink errors)",
}


@dataclass
class HealthReport:
    """The scored outcome: overall value, sub-scores, and attributions."""

    score: float
    components: Dict[str, float]
    messages: List[str]
    #: condition -> (instances, points subtracted after the cap)
    applied: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    signals: Optional[HealthSignals] = None

    @property
    def healthy(self) -> bool:
        return self.score >= 90.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "score": self.score,
            "components": dict(self.components),
            "messages": list(self.messages),
            "applied": {
                name: {"count": count, "points": points}
                for name, (count, points) in self.applied.items()
            },
        }

    def render(self) -> str:
        from repro.analysis.report import render_table

        rows = [("fleet health", f"{self.score:.1f} / 100")]
        for name in sorted(self.components):
            rows.append((f"  {name}", f"{self.components[name]:.1f}"))
        table = render_table(
            ["component", "score"], rows, title="fleet health"
        )
        if not self.messages:
            return table + "\nno active conditions"
        lines = [table, "conditions:"]
        lines.extend(f"  - {message}" for message in self.messages)
        return "\n".join(lines)


class FleetHealthScorer:
    """Weighted-delta health scoring with per-condition attribution."""

    def score(self, signals: HealthSignals) -> HealthReport:
        """Score one snapshot: 100 minus capped per-condition deltas."""
        cluster_health_value = 100.0
        component_values: Dict[str, float] = {
            component: 100.0
            for component in set(COMPONENT_BY_CONDITION.values())
        }
        messages: List[str] = []
        applied: Dict[str, Tuple[int, float]] = {}
        for name, count in signals.condition_counts().items():
            if count <= 0:
                continue
            delta = DEFAULT_HEALTH_DELTA_MAP.get(name, 0.0)
            points = min(delta * count, DEFAULT_CONDITION_CAP)
            if points <= 0:
                continue
            cluster_health_value -= points
            component = COMPONENT_BY_CONDITION.get(name, "other")
            component_values[component] = (
                component_values.get(component, 100.0) - points
            )
            applied[name] = (count, points)
            template = _MESSAGES.get(name, name + " ({n})")
            messages.append(
                template.format(n=count) + f" [{name}, -{points:g}]"
            )
        def clamp(value: float) -> float:
            return max(0.0, min(100.0, value))

        return HealthReport(
            score=clamp(cluster_health_value),
            components={
                name: clamp(value)
                for name, value in sorted(component_values.items())
            },
            messages=messages,
            applied=applied,
            signals=signals,
        )


__all__ = [
    "COMPONENT_BY_CONDITION",
    "DEFAULT_CONDITION_CAP",
    "DEFAULT_HEALTH_DELTA_MAP",
    "FleetHealthScorer",
    "HealthReport",
    "HealthSignals",
    "NETWORK_COMPONENTS",
]
