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

from typing import Callable, Dict, List, Optional, Set

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
from repro.scheduler.preemption import PreemptionPolicy
from repro.scheduler.preflight import PreflightPolicy
from repro.scheduler.priority import PriorityPolicy
from repro.scheduler.quota import QuotaManager
from repro.sim.engine import Engine
from repro.sim.events import EventLog
from repro.sim.processes import PeriodicProcess
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MINUTE
from repro.workload.spec import IntendedOutcome, JobSpec, QosTier


class SlurmLikeScheduler:
    """Gang scheduler with preemption, requeue, quotas, and accounting."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        rngs: RngStreams,
        priority: Optional[PriorityPolicy] = None,
        placement: Optional[PlacementPolicy] = None,
        preemption: Optional[PreemptionPolicy] = None,
        quotas: Optional[QuotaManager] = None,
        preflight: Optional[PreflightPolicy] = None,
        event_log: Optional[EventLog] = None,
        requeued_status_probability: float = 0.35,
        exclude_probability: float = 0.25,
        pass_period: float = 30 * MINUTE,
        telemetry=None,
    ):
        if not 0 <= requeued_status_probability <= 1:
            raise ValueError("requeued_status_probability must be in [0, 1]")
        if not 0 <= exclude_probability <= 1:
            raise ValueError("exclude_probability must be in [0, 1]")
        self.engine = engine
        self.cluster = cluster
        self.priority = priority if priority is not None else PriorityPolicy()
        self.placement = placement if placement is not None else PlacementPolicy()
        self.preemption = preemption if preemption is not None else PreemptionPolicy()
        self.quotas = quotas if quotas is not None else QuotaManager()
        self.preflight = preflight
        self.event_log = event_log if event_log is not None else cluster.event_log
        self.requeued_status_probability = requeued_status_probability
        self.exclude_probability = exclude_probability
        #: obs.Telemetry bundle; job lifecycle transitions are traced when
        #: enabled (submit/start/preempt/requeue/finish).
        self.telemetry = telemetry
        self._rng = rngs.stream("scheduler")

        self.jobs: Dict[int, Job] = {}
        self.pending: List[Job] = []
        self.running: Set[int] = set()
        self.records: List[JobAttemptRecord] = []
        self.index = FreeNodeIndex(cluster.nodes)
        self._pass_pending = False
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
            engine, pass_period, self._schedule_pass, label="sched-tick"
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
            telemetry.tracer.emit(
                "sched.submit",
                f"job-{spec.job_id}",
                self.engine.now,
                job_id=spec.job_id,
                n_gpus=spec.n_gpus,
                submit_time=spec.submit_time,
            )
            telemetry.metrics.counter("sched_jobs_submitted_total").inc()
        if self.engine.now >= spec.submit_time:
            job.enqueue_time = self.engine.now
            self.pending.append(job)
            self._request_pass()
        else:
            self.engine.schedule_at(
                spec.submit_time,
                lambda: self._become_eligible(job),
                label=f"submit:{spec.job_id}",
            )
        return job

    def _become_eligible(self, job: Job) -> None:
        self.pending.append(job)
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
        # Swap the queue out: anything enqueued *during* the pass (e.g.
        # preemption victims) lands on the fresh self.pending and is picked
        # up next pass rather than being lost when we write back.
        queue, self.pending = self.pending, []
        ordered = self.priority.sort_pending(queue, now)
        still_pending: List[Job] = []
        preemption_spent = False
        for job in ordered:
            if not self.quotas.may_start(job.spec.project, job.n_gpus):
                still_pending.append(job)
                continue
            nodes = self.placement.place(self.index, job.n_gpus, job.excluded_nodes)
            if nodes is None and not preemption_spent and job.qos > QosTier.LOW:
                preemption_spent = True
                nodes = self._try_preempt_for(job, now)
            if nodes is None:
                still_pending.append(job)
            else:
                self._start(job, nodes, now)
        self.pending.extend(still_pending)

    def _try_preempt_for(self, job: Job, now: float) -> Optional[List[Node]]:
        cluster = self.cluster
        plan = self.preemption.plan(
            pending=job,
            nodes=cluster.nodes,
            jobs=self.jobs,
            now=now,
            already_free=self.index.free_full_node_count(),
            excluded=job.excluded_nodes,
            candidate_ids=cluster.schedulable_node_ids(),
        )
        if plan is None:
            return None
        telemetry = self.telemetry
        observing = telemetry is not None and telemetry.enabled
        for victim in plan.victims:
            if observing:
                telemetry.tracer.emit(
                    "sched.preempt",
                    f"job-{victim.job_id}",
                    now,
                    job_id=victim.job_id,
                    instigator_job_id=job.job_id,
                    n_gpus=victim.n_gpus,
                )
                telemetry.metrics.counter("sched_preemptions_total").inc()
            self._interrupt(
                victim,
                state=JobState.PREEMPTED,
                instigator_job_id=job.job_id,
            )
            victim.reenqueue(now)
            self.pending.append(victim)
        return self.placement.place(self.index, job.n_gpus, job.excluded_nodes)

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
        self.running.add(job.job_id)
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.tracer.emit(
                "sched.start",
                f"job-{job.job_id}",
                now,
                job_id=job.job_id,
                attempt=job.attempt,
                n_gpus=job.n_gpus,
                nodes=len(nodes),
            )
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
        self.pending.append(job)
        self._request_pass()

    def _finish_attempt(self, job: Job, record: JobAttemptRecord) -> None:
        """Common bookkeeping once an attempt's record exists."""
        self.records.append(record)
        if self.on_record is not None:
            self.on_record(record)
        self.running.discard(job.job_id)
        self.quotas.release(job.spec.project, job.n_gpus)
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
            telemetry.tracer.emit(
                "sched.finish",
                f"job-{job.job_id}",
                self.engine.now,
                job_id=job.job_id,
                attempt=record.attempt,
                state=record.state.value,
                n_gpus=record.n_gpus,
            )
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
            elif self._rng.random() < self.requeued_status_probability:
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
            if self._rng.random() < self.exclude_probability:
                job.excluded_nodes.add(node.node_id)
                node.record_exclusion(job.job_id)
            if job.can_requeue():
                job.requeues_used += 1
                job.reenqueue(now)
                self.pending.append(job)
                telemetry = self.telemetry
                if telemetry is not None and telemetry.enabled:
                    telemetry.tracer.emit(
                        "sched.requeue",
                        f"job-{job.job_id}",
                        now,
                        job_id=job.job_id,
                        failing_node_id=node.node_id,
                        requeues_used=job.requeues_used,
                    )
                    telemetry.metrics.counter("sched_requeues_total").inc()
        self.index.remove(node.node_id)
        self._request_pass()

    def _on_node_available(self, node: Node) -> None:
        self.index.refresh(node.node_id)
        self._request_pass()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return len(self.pending)

    def running_gpus(self) -> int:
        return sum(self.jobs[jid].n_gpus for jid in self.running)

    def stop(self) -> None:
        """Stop periodic passes (end of campaign)."""
        self._ticker.stop()
