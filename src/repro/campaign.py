"""Campaign runner: wire cluster + scheduler + workload, produce a Trace.

A campaign is this repository's unit of "data collection" — the analogue of
the paper's 11 months of observing a cluster.  Everything is derived from a
:class:`CampaignConfig` and a single seed, so every figure is regenerable
bit-for-bit.

Scaled-down campaigns are first-class: the workload generator calibrates
submission rate to the cluster's size, and profiles drop job sizes that
would not fit, so a 128-node campaign exhibits the same *shapes* as a
2000-node one with proportionally fewer events.
"""

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.obs.spans import maybe_span
from repro.options import DEFAULT_OPTIONS, RunOptions
from repro.scheduler.engine import SlurmLikeScheduler
from repro.scheduler.quota import QuotaManager
from repro.sim.engine import Engine
from repro.sim.events import EventLog
from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import WorkloadProfile, rsc1_profile, rsc2_profile
from repro.workload.trace import NodeTraceRecord, Trace

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Telemetry
    from repro.scheduler.preflight import PreflightPolicy


@dataclass
class CampaignConfig:
    """Everything needed to replay one campaign."""

    cluster_spec: ClusterSpec
    duration_days: float
    seed: int = 0
    profile: Optional[WorkloadProfile] = None
    target_utilization: float = 0.87
    diurnal_amplitude: float = 0.3
    quotas: Optional[Dict[str, int]] = None
    #: Section V's research direction: gang placement prefers nodes with
    #: clean failure histories (see scheduler.reliability_aware).
    reliability_aware_placement: bool = False
    #: Section V: preflight hardware batteries before large gangs start
    #: (None disables; see scheduler.preflight.PreflightPolicy).
    preflight: Optional["PreflightPolicy"] = None
    lemon_detection: bool = False
    lemon_detection_period_days: float = 7.0
    max_events: int = 50_000_000

    def __post_init__(self):
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.duration_days > self.cluster_spec.campaign_days:
            raise ValueError(
                "duration_days exceeds the cluster spec's campaign_days "
                "(episodic regimes are placed within campaign_days)"
            )
        if self.preflight is not None:
            # Deferred import: campaign is the bridge between the config
            # vocabulary and the scheduler, and must stay import-light.
            from repro.scheduler.preflight import PreflightPolicy

            if not isinstance(self.preflight, PreflightPolicy):
                raise TypeError(
                    "preflight must be a scheduler.preflight.PreflightPolicy "
                    f"or None, got {type(self.preflight).__name__}"
                )

    def resolve_profile(self) -> WorkloadProfile:
        if self.profile is not None:
            return self.profile
        if self.cluster_spec.name.startswith("RSC-2"):
            return rsc2_profile()
        return rsc1_profile()


def _phase_timer(telemetry: Optional["Telemetry"], observing: bool, phase: str):
    """Per-phase profiling timer; a no-op context when telemetry is off."""
    if not observing:
        return nullcontext()
    return telemetry.metrics.timer("campaign_phase_seconds", phase=phase)


class Campaign:
    """Owns the live objects of one campaign and runs it to a trace."""

    def __init__(
        self,
        config: CampaignConfig,
        telemetry: Optional["Telemetry"] = None,
        options: Optional["RunOptions"] = None,
    ):
        # Campaign is the low-level runner object; its explicit telemetry
        # keyword stays supported, with ``options`` filling it when absent.
        opts = options if options is not None else DEFAULT_OPTIONS
        if telemetry is None:
            telemetry = opts.telemetry
        self.config = config
        #: Observability bundle (repro.obs.Telemetry).  Deliberately NOT a
        #: CampaignConfig field: telemetry must never influence the cache
        #: key or the simulated trace — it only observes.
        self.telemetry = telemetry
        self.engine = Engine(telemetry=telemetry)
        self.rngs = RngStreams(config.seed)
        self.event_log = EventLog()
        self.cluster = Cluster(
            config.cluster_spec,
            self.engine,
            self.rngs,
            event_log=self.event_log,
            telemetry=telemetry,
        )
        placement = None
        if config.reliability_aware_placement:
            from repro.scheduler.reliability_aware import ReliabilityAwarePlacement

            placement = ReliabilityAwarePlacement()
        self.scheduler = SlurmLikeScheduler(
            self.engine,
            self.cluster,
            self.rngs,
            placement=placement,
            quotas=QuotaManager(config.quotas),
            preflight=config.preflight,
            event_log=self.event_log,
            telemetry=telemetry,
        )
        self.generator = WorkloadGenerator(
            config.resolve_profile(),
            self.rngs,
            cluster_gpus=config.cluster_spec.n_gpus,
            target_utilization=config.target_utilization,
            diurnal_amplitude=config.diurnal_amplitude,
        )
        self._detector = None
        if config.lemon_detection:
            # Deferred import: core.lemon consumes cluster/trace types, and
            # campaign is the only place both halves meet.
            from repro.core.lemon import LemonDetector, LemonPolicy
            from repro.sim.processes import PeriodicProcess

            self._detector = LemonDetector(LemonPolicy())
            self._lemon_sweeper = PeriodicProcess(
                self.engine,
                config.lemon_detection_period_days * DAY,
                self._lemon_sweep,
                label="lemon-sweep",
            )

    def _lemon_sweep(self) -> None:
        flagged = self._detector.detect_live(self.cluster.nodes.values())
        telemetry = self.telemetry
        observing = telemetry is not None and telemetry.enabled
        for node in flagged:
            if not node.quarantined:
                node.quarantined = True
                self.scheduler.index.remove(node.node_id)
                self.event_log.emit(
                    self.engine.now,
                    "lemon.quarantined",
                    node.name,
                    node_id=node.node_id,
                )
                if observing:
                    telemetry.tracer.emit(
                        "lemon.flagged",
                        node.name,
                        self.engine.now,
                        node_id=node.node_id,
                        votes=self._detector.policy.votes(
                            lambda name: node.counters.as_dict()[name]
                        ),
                    )
                    telemetry.metrics.counter(
                        "lemon_nodes_flagged_total"
                    ).inc()

    def _submit_continuation(self, job, record) -> None:
        """Chain the next segment of a long training run (same jobrun)."""
        next_spec = self.generator.continuations.pop(job.job_id, None)
        if next_spec is not None:
            self.scheduler.submit(next_spec)

    def run(self) -> Trace:
        """Run the configured span and return the observable trace."""
        t0 = time.perf_counter()
        span = self.config.duration_days * DAY
        telemetry = self.telemetry
        observing = telemetry is not None and telemetry.enabled
        if observing:
            telemetry.tracer.emit(
                "campaign.begin",
                self.config.cluster_spec.name,
                0.0,
                seed=self.config.seed,
                n_nodes=self.config.cluster_spec.n_nodes,
                duration_days=self.config.duration_days,
            )
        self.scheduler.on_job_completed = self._submit_continuation
        with maybe_span(
            telemetry,
            "campaign",
            seed=self.config.seed,
            cluster=self.config.cluster_spec.name,
            duration_days=self.config.duration_days,
        ):
            with _phase_timer(telemetry, observing, "generate"), maybe_span(
                telemetry, "phase:generate"
            ):
                for spec in self.generator.generate(0.0, span):
                    # Eligibility is deferred to each spec's submit_time.
                    self.scheduler.submit(spec)
            with _phase_timer(telemetry, observing, "simulate"), maybe_span(
                telemetry, "phase:simulate"
            ):
                self.cluster.start()
                self.engine.run_until(span, max_events=self.config.max_events)
                self.scheduler.stop()
            with _phase_timer(telemetry, observing, "build_trace"), maybe_span(
                telemetry, "phase:build_trace"
            ):
                trace = self._build_trace(span)
        elapsed = time.perf_counter() - t0
        executed = self.engine.executed_events
        # Instrumentation consumed by CampaignPool/TraceCache and surfaced
        # in BENCH output; excluded from trace_digest so a cache-loaded
        # trace still digests equal to a freshly simulated one.
        trace.metadata["runtime"] = {
            "wall_time_s": elapsed,
            "events_executed": executed,
            "events_per_sec": executed / elapsed if elapsed > 0 else 0.0,
            "source": "simulated",
        }
        if observing:
            telemetry.tracer.emit(
                "campaign.end",
                self.config.cluster_spec.name,
                span,
                seed=self.config.seed,
                events_executed=executed,
                wall_time_s=elapsed,
            )
            telemetry.metrics.counter("campaigns_run_total").inc()
            telemetry.metrics.counter("engine_events_executed_total").inc(
                executed
            )
            telemetry.metrics.histogram("campaign_wall_seconds").observe(
                elapsed
            )
        return trace

    def _build_trace(self, span: float) -> Trace:
        lemon_by_id = {
            spec.node_id: spec.component.value for spec in self.cluster.lemon_specs
        }
        node_records = []
        for node in self.cluster.nodes.values():
            counters = node.counters
            node_records.append(
                NodeTraceRecord(
                    node_id=node.node_id,
                    rack_id=node.rack_id,
                    pod_id=node.pod_id,
                    gpu_swaps=node.gpu_swaps,
                    is_lemon_truth=node.node_id in lemon_by_id,
                    lemon_component=lemon_by_id.get(node.node_id),
                    excl_jobid_count=counters.excl_jobid_count,
                    xid_cnt=counters.xid_cnt,
                    tickets=counters.tickets,
                    out_count=counters.out_count,
                    multi_node_node_fails=counters.multi_node_node_fails,
                    single_node_node_fails=counters.single_node_node_fails,
                    single_node_jobs_seen=counters.single_node_jobs_seen,
                )
            )
        spec = self.config.cluster_spec
        return Trace(
            cluster_name=spec.name,
            n_nodes=spec.n_nodes,
            n_gpus=spec.n_gpus,
            start=0.0,
            end=span,
            job_records=list(self.scheduler.records),
            node_records=node_records,
            events=list(self.event_log),
            metadata={
                "check_introductions": {
                    check.name: check.introduced_at
                    for check in self.cluster.monitor.checks
                    if check.introduced_at > 0
                },
                "seed": self.config.seed,
                "profile": self.generator.profile.name,
                "jobs_per_day": self.generator.jobs_per_day,
                "baseline_rf_per_node_day": self.cluster.hazards.baseline_total_rate(),
                "lemon_detection": self.config.lemon_detection,
                "target_utilization": self.config.target_utilization,
            },
        )


def run_campaign(
    config: CampaignConfig, options: Optional["RunOptions"] = None
) -> Trace:
    """One-call convenience: build and run a campaign.

    ``options`` (a :class:`repro.RunOptions`) selects the execution
    strategy, e.g. a telemetry bundle; none of it changes the simulated
    trace.
    """
    return Campaign(config, options=options).run()
