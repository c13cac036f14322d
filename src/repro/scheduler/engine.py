"""The scheduler engine: Slurm semantics on the event loop.

Responsibilities and their paper anchors:

* Gang scheduling — all of a job's servers allocate atomically; any node
  loss tears down the whole job (Fig. 1).
* Priority scheduling with preemption after the two-hour shield, and the
  seven-day lifetime cap (Section II-A).
* Automatic requeue with the same job id after infrastructure-caused
  terminations (Section II-A's guarantee) — this is what produces failure
  cascades: a requeued large high-priority job preempts swarms of small
  jobs (Observation 9).
* Per-attempt accounting records, the input to every Fig. 3-9 analysis.

Scheduling passes are debounced: any trigger (submit, job end, node back
from repair) schedules at most one pass at the current timestamp, plus a
periodic tick so age-based priority keeps the queue moving.
"""

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureIncident
from repro.cluster.node import Node, NodeState
from repro.obs.spans import maybe_span
from repro.scheduler.job import (
    FINAL_OUTCOME_BY_INTENT,
    Job,
    JobAttemptRecord,
    JobState,
)
from repro.scheduler.placement import FreeNodeIndex, PlacementPolicy
from repro.scheduler.pending import PendingQueue
from repro.scheduler.preemption import PreemptionPlan, PreemptionPolicy
from repro.scheduler.preflight import PreflightPolicy
from repro.scheduler.priority import PriorityPolicy
from repro.scheduler.quota import QuotaManager
from repro.sim.engine import Engine
from repro.sim.events import EventLog
from repro.sim.processes import PeriodicProcess
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MINUTE
from repro.workload.spec import JobSpec, QosTier

#: Share of attempts killed by a detected node failure that Slurm
#: records as REQUEUED rather than FAILED (heartbeat-only losses are
#: always NODE_FAIL).
REQUEUED_STATUS_PROBABILITY = 0.35
#: Chance a job killed by a node failure adds that node to its exclude
#: list.
EXCLUDE_PROBABILITY = 0.25
#: Period of the background scheduling pass.
PASS_PERIOD = 30 * MINUTE


class SlurmLikeScheduler:
    """Gang scheduler with preemption, requeue, quotas, and accounting."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        rngs: RngStreams,
        placement: Optional[PlacementPolicy] = None,
        quotas: Optional[QuotaManager] = None,
        preflight: Optional[PreflightPolicy] = None,
        event_log: Optional[EventLog] = None,
        telemetry=None,
    ):
        self.engine = engine
        self.cluster = cluster
        self.priority = PriorityPolicy()
        self.placement = placement if placement is not None else PlacementPolicy()
        self.preemption = PreemptionPolicy()
        self.quotas = quotas if quotas is not None else QuotaManager()
        self.preflight = preflight
        self.event_log = event_log if event_log is not None else cluster.event_log
        #: obs.Telemetry bundle; when enabled, job lifecycle transitions
        #: are counted (the ``sched_*_total`` counters) and every
        #: scheduling pass is timed (the ``sched.pass`` span).
        self.telemetry = telemetry
        self._rng = rngs.stream("scheduler")

        self.jobs: Dict[int, Job] = {}
        self.pending = PendingQueue(self.priority)
        self.running: Set[int] = set()
        self.records: List[JobAttemptRecord] = []
        self.index = FreeNodeIndex(cluster.nodes, cluster)
        self._pass_pending = False
        #: (inputs, shielded start) of the last preemption plan that
        #: failed; see ``_plan_preemption``.
        self._failed_plan: Optional[Tuple[tuple, float]] = None
        #: node id -> resident attempts per QoS tier, and the number of
        #: nodes whose highest resident tier is each tier: an O(1) bound
        #: on the nodes a preemption could liberate.
        self._resident_tiers: Dict[int, List[int]] = {}
        self._top_tier_nodes: List[int] = [0] * (max(QosTier) + 1)
        #: invoked when a job COMPLETEs (used for job-run continuations:
        #: long training runs submit their next <=7-day segment here).
        self.on_job_completed: Optional[
            "Callable[[Job, JobAttemptRecord], None]"
        ] = None
        #: invoked with every closed attempt record immediately after it
        #: is appended to ``records`` (and before the ``sched.job_end``
        #: event) — the live tap's job channel; must not mutate state.
        self.on_record: Optional[
            "Callable[[JobAttemptRecord], None]"
        ] = None

        cluster.on_node_down = self._on_node_down
        cluster.on_node_available = self._on_node_available
        self._ticker = PeriodicProcess(
            engine, PASS_PERIOD, self._schedule_pass, label="sched-tick"
        )

    # ------------------------------------------------------------------
    # submission & scheduling passes
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Accept a job; it becomes eligible at its submit time.

        Specs may be submitted ahead of time (the campaign runner hands the
        whole stream over at t=0); eligibility is deferred to
        ``spec.submit_time``.
        """
        if spec.job_id in self.jobs:
            raise ValueError(f"duplicate job id {spec.job_id}")
        job = Job(spec)
        self.jobs[spec.job_id] = job
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.metrics.counter("sched_jobs_submitted_total").inc()
        if self.engine.now >= spec.submit_time:
            job.enqueue_time = self.engine.now
            self.pending.add(job)
            self._request_pass()
        else:
            self.engine.schedule_at(
                spec.submit_time,
                lambda: self._become_eligible(job),
                label=f"submit:{spec.job_id}",
            )
        return job

    def _become_eligible(self, job: Job) -> None:
        self.pending.add(job)
        self._request_pass()

    def _request_pass(self) -> None:
        if not self._pass_pending:
            self._pass_pending = True
            self.engine.schedule_after(0, self._run_pass, label="sched-pass")

    def _run_pass(self) -> None:
        self._pass_pending = False
        self._schedule_pass()

    def _schedule_pass(self) -> None:
        with maybe_span(
            self.telemetry, "sched.pass", queued=len(self.pending)
        ):
            self._schedule_pass_body()

    def _schedule_pass_body(self) -> None:
        now = self.engine.now
        queue = self.pending
        if not queue:
            return
        index = self.index
        quotas = self.quotas
        # A plan made before the loop, for the first preemption attempt.
        plan: Optional[PreemptionPlan] = None
        if not index.may_fit(queue.min_gpus()):
            # Nothing can start without preemption, and the failing
            # placements would not touch the index: the one open decision
            # is the preemption attempt of the first job that may make it.
            head = None
            for job in queue.begin_pass(now, above=QosTier.LOW):
                if quotas.may_start(job.spec.project, job.n_gpus):
                    head = job
                    break
            queue.end_pass(())
            if head is None:
                return
            plan = self._plan_preemption(head, now)
            if plan is None:
                return
            # Every placement still fails, so the loop's first preemption
            # attempt is head's, on this index: it takes this plan.
        # Jobs enqueued *during* the pass (preemption victims) are held
        # back until it ends, so this pass does not visit them.
        merge = queue.begin_pass(now)
        started: List[Job] = []
        preemption_spent = False
        # The smallest request that failed with no exclusions, and the
        # index version it failed on.  While the version stands (no
        # start, no preemption), every request at least as large fails
        # too (the PlacementPolicy contract), so it is not placed.
        fail_floor = math.inf
        floor_version = -1
        try:
            for job in merge:
                n_gpus = job.n_gpus
                if quotas.may_start(job.spec.project, n_gpus):
                    if n_gpus >= fail_floor and index.version == floor_version:
                        nodes = None
                    else:
                        nodes = self.placement.place(
                            index, n_gpus, job.excluded_nodes
                        )
                        if nodes is None and not job.excluded_nodes:
                            fail_floor = n_gpus
                            floor_version = index.version
                    if (
                        nodes is None
                        and not preemption_spent
                        and job.qos > QosTier.LOW
                    ):
                        preemption_spent = True
                        nodes = self._try_preempt_for(job, now, plan)
                    if nodes is not None:
                        self._start(job, nodes, now)
                        started.append(job)
                # The rest of a bucket cannot act while the floor covers
                # its size and it has no preemption attempt to make.
                if index.version != floor_version:
                    if merge.parked:
                        merge.wake()
                elif n_gpus >= fail_floor and (
                    preemption_spent or job.qos is QosTier.LOW
                ):
                    merge.park()
        finally:
            queue.end_pass(started)

    def _plan_preemption(self, job: Job, now: float) -> Optional[PreemptionPlan]:
        """The preemption plan for ``job``, or a remembered None while it
        must repeat.

        A failed plan holds until the index or the cluster's availability
        changes, the request differs, or the clock lifts the shield off
        the earliest shielded candidate (``docs/PERFORMANCE.md``,
        "Scheduling pass").
        """
        index = self.index
        already_free = index.free_full_node_count()
        key = (
            index.version,
            self.cluster.availability_epoch,
            job.qos,
            job.n_gpus,
            already_free,
            frozenset(job.excluded_nodes),
        )
        failed = self._failed_plan
        # Keep the subtraction form (docs/PERFORMANCE.md, "Preemption
        # planning").
        if (
            failed is not None
            and failed[0] == key
            and not (now - failed[1]) >= self.preemption.shield
        ):
            return None
        cluster = self.cluster
        plan, shielded_start = self.preemption.plan_with_shielded_start(
            pending=job,
            nodes=cluster.nodes,
            jobs=self.jobs,
            now=now,
            already_free=already_free,
            excluded=job.excluded_nodes,
            candidate_ids=cluster.schedulable_node_ids(),
            summaries=index.resident_summaries,
            lower_ranked_nodes=sum(self._top_tier_nodes[: job.qos]),
        )
        self._failed_plan = (key, shielded_start) if plan is None else None
        return plan

    def _try_preempt_for(
        self, job: Job, now: float, plan: Optional[PreemptionPlan] = None
    ) -> Optional[List[Node]]:
        if plan is None:
            plan = self._plan_preemption(job, now)
        if plan is None:
            return None
        telemetry = self.telemetry
        observing = telemetry is not None and telemetry.enabled
        for victim in plan.victims:
            if observing:
                telemetry.metrics.counter("sched_preemptions_total").inc()
            self._interrupt(
                victim,
                state=JobState.PREEMPTED,
                instigator_job_id=job.job_id,
            )
            victim.reenqueue(now)
            self.pending.add(victim)
        return self.placement.place(self.index, job.n_gpus, job.excluded_nodes)

    def _count_residents(self, job: Job, node_ids: List[int], delta: int) -> None:
        """Add (+1) or drop (-1) ``job`` as a resident of ``node_ids``."""
        qos = int(job.qos)
        top_tier_nodes = self._top_tier_nodes
        for node_id in node_ids:
            tiers = self._resident_tiers.get(node_id)
            if tiers is None:
                tiers = self._resident_tiers[node_id] = [0] * len(top_tier_nodes)
            before = _top_tier(tiers)
            tiers[qos] += delta
            after = _top_tier(tiers)
            if after != before:
                if before:
                    top_tier_nodes[before] -= 1
                if after:
                    top_tier_nodes[after] += 1

    # ------------------------------------------------------------------
    # attempt lifecycle
    # ------------------------------------------------------------------
    def _start(self, job: Job, nodes: List[Node], now: float) -> None:
        gpus_per_node = job.spec.gpus_per_node
        for node in nodes:
            node.allocate(job.job_id, gpus_per_node)
            self.index.refresh(node.node_id)
            if job.spec.is_single_node():
                node.counters.single_node_jobs_seen += 1
        self.quotas.acquire(job.spec.project, job.n_gpus)
        job.state = JobState.RUNNING
        job.start_time = now
        job.node_ids = [n.node_id for n in nodes]
        self._count_residents(job, job.node_ids, 1)
        self.running.add(job.job_id)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.metrics.counter("sched_attempts_started_total").inc()
        if self.preflight is not None and self.preflight.applies_to(job.n_nodes):
            # Hold the allocation while the hardware battery runs; the
            # gang only begins real work once every node passes.
            job.end_event = self.engine.schedule_after(
                self.preflight.duration,
                lambda j=job: self._finish_preflight(j),
                label=f"preflight:{job.job_id}",
            )
            self.event_log.emit(
                now,
                "sched.preflight_start",
                f"job-{job.job_id}",
                job_id=job.job_id,
                nodes=len(nodes),
            )
            return
        self._begin_execution(job, now)

    def _begin_execution(self, job: Job, now: float) -> None:
        natural = job.remaining_work
        limit = job.spec.time_limit
        if natural <= limit:
            job.end_event = self.engine.schedule_after(
                natural, lambda j=job: self._natural_end(j), label=f"end:{job.job_id}"
            )
        else:
            job.end_event = self.engine.schedule_after(
                limit, lambda j=job: self._timeout_end(j), label=f"timeout:{job.job_id}"
            )
        self.event_log.emit(
            now,
            "sched.job_start",
            f"job-{job.job_id}",
            job_id=job.job_id,
            attempt=job.attempt,
            n_gpus=job.n_gpus,
            nodes=len(job.node_ids),
        )

    def _finish_preflight(self, job: Job) -> None:
        """Resolve a gang's hardware battery: start clean, or flag & retry."""
        now = self.engine.now
        rng = self._rng
        flagged: List[Node] = []
        for node_id in job.node_ids:
            node = self.cluster.nodes[node_id]
            rate = self.cluster.hazards.total_rate(node_id, now)
            if self.preflight.node_fails_battery(node, rate, rng):
                flagged.append(node)
        if not flagged:
            # Re-baseline: the battery is start latency, not training time.
            job.start_time = now
            self.index.forget_summaries(job.node_ids)
            self._begin_execution(job, now)
            return
        # Tear the reservation down without recording a run attempt —
        # the job never executed.  Flagged nodes go to remediation.
        node_ids = list(job.node_ids)
        job.state = JobState.PENDING
        job.start_time = None
        job.node_ids = []
        job.end_event = None
        self.running.discard(job.job_id)
        self.quotas.release(job.spec.project, job.n_gpus)
        self._count_residents(job, node_ids, -1)
        for node_id in node_ids:
            self.cluster.release_job(node_id, job.job_id)
            self.index.refresh(node_id)
        from repro.cluster.components import FailureClass
        from repro.cluster.failures import FailureIncident
        from repro.cluster.health import CheckSeverity

        for node in flagged:
            incident = FailureIncident(
                incident_id=self.cluster.monitor.new_incident_id(),
                node_id=node.node_id,
                component=self.cluster.hazards.sample_component(
                    node.node_id, now, rng
                ),
                failure_class=FailureClass.TRANSIENT,
                time=now,
                severity=CheckSeverity.HIGH,
            )
            self.event_log.emit(
                now,
                "sched.preflight_failed",
                node.name,
                node_id=node.node_id,
                job_id=job.job_id,
            )
            if node.state is not NodeState.REMEDIATION:
                self.cluster.remediation.begin_remediation(node, incident)
            self.index.remove(node.node_id)
        job.reenqueue(now)
        job.attempt -= 1  # the reservation was not an attempt
        self.pending.add(job)
        self._request_pass()

    def _finish_attempt(self, job: Job, record: JobAttemptRecord) -> None:
        """Common bookkeeping once an attempt's record exists."""
        self.records.append(record)
        if self.on_record is not None:
            self.on_record(record)
        self.running.discard(job.job_id)
        self.quotas.release(job.spec.project, job.n_gpus)
        self._count_residents(job, record.node_ids, -1)
        for node_id in record.node_ids:
            self.cluster.release_job(node_id, job.job_id)
            self.index.refresh(node_id)
        self.event_log.emit(
            record.end_time,
            "sched.job_end",
            f"job-{job.job_id}",
            job_id=job.job_id,
            attempt=record.attempt,
            state=record.state.value,
            n_gpus=record.n_gpus,
        )
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.metrics.counter(
                "sched_attempts_total", state=record.state.value
            ).inc()
        self._request_pass()

    def _natural_end(self, job: Job) -> None:
        now = self.engine.now
        job.remaining_work -= job.running_elapsed(now)
        state = FINAL_OUTCOME_BY_INTENT[job.spec.intended_outcome]
        record = job.close_attempt(end_time=now, state=state)
        self._finish_attempt(job, record)
        if state is JobState.COMPLETED and self.on_job_completed is not None:
            self.on_job_completed(job, record)

    def _timeout_end(self, job: Job) -> None:
        now = self.engine.now
        job.remaining_work -= job.running_elapsed(now)
        record = job.close_attempt(end_time=now, state=JobState.TIMEOUT)
        self._finish_attempt(job, record)

    def _interrupt(
        self,
        job: Job,
        state: JobState,
        hw_component: Optional[str] = None,
        hw_incident_id: Optional[int] = None,
        hw_attributed: bool = False,
        failing_node_id: Optional[int] = None,
        instigator_job_id: Optional[int] = None,
    ) -> JobAttemptRecord:
        """Tear down a running attempt (preemption or node failure)."""
        now = self.engine.now
        if job.end_event is not None:
            job.end_event.cancel()
        job.remaining_work -= job.running_elapsed(now)
        # Progress is credited fully here; checkpoint-gap and restart losses
        # are applied analytically downstream (Section II-D treats them as
        # free parameters, exactly as we do).
        record = job.close_attempt(
            end_time=now,
            state=state,
            hw_component=hw_component,
            hw_incident_id=hw_incident_id,
            hw_attributed=hw_attributed,
            failing_node_id=failing_node_id,
            instigator_job_id=instigator_job_id,
        )
        self._finish_attempt(job, record)
        return record

    # ------------------------------------------------------------------
    # cluster callbacks
    # ------------------------------------------------------------------
    def _on_node_down(self, node: Node, incident: FailureIncident) -> None:
        """High-severity incident: kill every resident job, maybe requeue."""
        now = self.engine.now
        for job_id in list(node.running_jobs):
            job = self.jobs[job_id]
            if incident.heartbeat_only:
                state = JobState.NODE_FAIL
            elif self._rng.random() < REQUEUED_STATUS_PROBABILITY:
                state = JobState.REQUEUED
            else:
                state = JobState.FAILED
            if job.spec.is_single_node():
                node.counters.single_node_node_fails += 1
            else:
                node.counters.multi_node_node_fails += 1
            job.hw_interruptions += 1
            self._interrupt(
                job,
                state=state,
                hw_component=incident.component.value,
                hw_incident_id=incident.incident_id,
                hw_attributed=incident.attributed,
                failing_node_id=node.node_id,
            )
            if self._rng.random() < EXCLUDE_PROBABILITY:
                job.excluded_nodes.add(node.node_id)
                node.record_exclusion(job.job_id)
            if job.can_requeue():
                job.requeues_used += 1
                job.reenqueue(now)
                self.pending.add(job)
                telemetry = self.telemetry
                if telemetry is not None and telemetry.enabled:
                    telemetry.metrics.counter("sched_requeues_total").inc()
        self.index.remove(node.node_id)
        self._request_pass()

    def _on_node_available(self, node: Node) -> None:
        self.index.refresh(node.node_id)
        self._request_pass()

    def stop(self) -> None:
        """Stop periodic passes (end of campaign)."""
        self._ticker.stop()


def _top_tier(tiers: List[int]) -> int:
    """The highest tier with a resident, or 0 for none."""
    tier = len(tiers) - 1
    while tier and not tiers[tier]:
        tier -= 1
    return tier
