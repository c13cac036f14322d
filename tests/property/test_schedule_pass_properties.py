"""The scheduling pass against the loop it replaced.

``SlurmLikeScheduler._schedule_pass_body`` skips work whose answer is
known: a pass in which nothing fits only makes the one preemption
attempt, placements a failed smaller request rules out are not made,
a failed preemption plan is reused while its inputs stand, and the
pending queue stays ordered between passes and stops visiting a
bucket whose rest cannot act (``docs/PERFORMANCE.md``, "Priority
keys" and "Scheduling pass").  ``ReferenceScheduler`` keeps the loop
as it was before those shortcuts: a full sort, ``place`` for every job
and a preemption plan on every attempt.

Two copies of one small cluster, one per scheduler, take the same
random churn: sub-server and multi-node jobs in every QoS tier,
bursts of identical jobs at one timestamp, exclude lists, a quota cap,
reliability-aware placement, preflight batteries, a weak QoS weight
under which the tiers interleave, node failures and drains, lemon
quarantines, clock steps past the age at which priorities saturate,
and clock steps that land exactly on a running job's shield boundary.
After every
step both must have made the same starts on the same nodes and the same
preemptions in the same order, and their placement indices must hold
the same entries (a skipped placement must not have flushed a stale
entry the reference flushed).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.components import ComponentType, FailureClass
from repro.cluster.failures import FailureIncident
from repro.cluster.health import CheckSeverity
from repro.jobtypes import QosTier
from repro.scheduler.engine import SlurmLikeScheduler
from repro.scheduler.job import JobState
from repro.scheduler.pending import PendingQueue
from repro.scheduler.preemption import PREEMPTION_SHIELD
from repro.scheduler.preflight import PreflightPolicy
from repro.scheduler.priority import PriorityPolicy
from repro.scheduler.quota import QuotaManager
from repro.scheduler.reliability_aware import ReliabilityAwarePlacement
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY, MINUTE
from repro.workload.spec import JobSpec

N_NODES = 24  # pods of 20 and 4 nodes


class ReferenceScheduler(SlurmLikeScheduler):
    """The scheduling pass before its shortcuts, verbatim."""

    def _schedule_pass_body(self) -> None:
        now = self.engine.now
        queue = list(self.pending)
        self.pending.clear()
        ordered = self.priority.sort_pending(queue, now)
        still_pending = []
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
        for job in still_pending:
            self.pending.add(job)

    def _try_preempt_for(self, job, now):
        cluster = self.cluster
        plan = self.preemption.plan_with_shielded_start(
            pending=job,
            nodes=cluster.nodes,
            jobs=self.jobs,
            now=now,
            already_free=self.index.free_full_node_count(),
            excluded=job.excluded_nodes,
            candidate_ids=cluster.schedulable_node_ids(),
            summaries=self.index.resident_summaries,
        )[0]
        if plan is None:
            return None
        for victim in plan.victims:
            self._interrupt(
                victim,
                state=JobState.PREEMPTED,
                instigator_job_id=job.job_id,
            )
            victim.reenqueue(now)
            self.pending.add(victim)
        return self.placement.place(self.index, job.n_gpus, job.excluded_nodes)


class World:
    """One cluster and scheduler, with a log of every decision."""

    def __init__(self, scheduler_cls, setup):
        failures, reliability_aware, preflight, flat = setup
        if failures:
            # Lemons fail often enough to drain and fail nodes mid-run.
            spec = ClusterSpec.rsc1_like(
                n_nodes=N_NODES,
                campaign_days=30,
                lemon_fraction=0.25,
                lemon_fail_per_day=1.0,
                enable_episodic_regimes=False,
            )
        else:
            spec = ClusterSpec(
                name="quiet",
                n_nodes=N_NODES,
                component_rates={ComponentType.GPU: 0.0},
                campaign_days=30,
                lemon_fraction=0.0,
                enable_episodic_regimes=False,
            )
        self.engine = Engine()
        self.cluster = Cluster(spec, self.engine, RngStreams(1))
        kwargs = {"quotas": QuotaManager({"capped": 24})}
        if reliability_aware:
            kwargs["placement"] = ReliabilityAwarePlacement(
                risk_of=lambda node: node.node_id % 3
            )
        if preflight:
            kwargs["preflight"] = PreflightPolicy(
                min_nodes=2, duration=10 * MINUTE, stress_days=30.0
            )
        self.scheduler = scheduler_cls(
            self.engine, self.cluster, RngStreams(2), **kwargs
        )
        if flat:
            # A weak QoS term: a LOW job that waited long enough passes a
            # fresh HIGH one, so the pass visits tiers interleaved.
            self.scheduler.priority = PriorityPolicy(qos_weight=10.0)
            self.scheduler.pending = PendingQueue(self.scheduler.priority)
        self.cluster.start()
        self.log = []
        self._observe()

    def _observe(self):
        sched = self.scheduler
        log = self.log
        start, interrupt, body = (
            sched._start,
            sched._interrupt,
            sched._schedule_pass_body,
        )

        def logged_start(job, nodes, now):
            log.append(("start", now, job.job_id, [n.node_id for n in nodes]))
            start(job, nodes, now)

        def logged_interrupt(job, state, **kwargs):
            log.append(
                ("stop", self.engine.now, job.job_id, state,
                 kwargs.get("instigator_job_id"))
            )
            return interrupt(job, state, **kwargs)

        def logged_body():
            log.append(("pass", self.engine.now, len(sched.pending)))
            body()

        sched._start = logged_start
        sched._interrupt = logged_interrupt
        sched._schedule_pass_body = logged_body

    def apply(self, op, a, b):
        engine, cluster, sched = self.engine, self.cluster, self.scheduler
        now = engine.now
        if op in ("submit", "burst"):
            gpus, qos, minutes, project, excluded = a
            # A burst submits identical jobs at one timestamp.
            for _ in range(b if op == "burst" else 1):
                job_id = len(sched.jobs) + 1
                sched.submit(
                    JobSpec(
                        job_id=job_id,
                        jobrun_id=job_id,
                        project=project,
                        n_gpus=gpus,
                        qos=qos,
                        submit_time=now,
                        work_seconds=minutes * MINUTE,
                        exclude_nodes=frozenset(excluded),
                    )
                )
            # The pass runs on the next step, so jobs submitted
            # back to back share it.
        elif op == "advance":
            engine.run_until(now + a * MINUTE)
        elif op == "shield":
            # Land exactly on a running job's shield boundary.
            boundaries = sorted(
                sched.jobs[jid].start_time + PREEMPTION_SHIELD
                for jid in sched.running
                if sched.jobs[jid].start_time + PREEMPTION_SHIELD > now
            )
            if boundaries:
                boundary = boundaries[a % len(boundaries)]
                engine.run_until(boundary)
                sched._request_pass()
                engine.run_until(boundary)
        elif op == "incident":
            node = cluster.nodes[a]
            if node.state.value != "healthy" or node.quarantined:
                return
            incident = FailureIncident(
                incident_id=cluster.monitor.new_incident_id(),
                node_id=a,
                component=ComponentType.GPU,
                failure_class=FailureClass.TRANSIENT,
                time=now,
                # LOW drains the node; HIGH kills its jobs at once.
                severity=CheckSeverity.LOW if b else CheckSeverity.HIGH,
            )
            cluster._handle_incident(incident)
            engine.run_until(now)
        elif op == "quarantine":
            # As the campaign's lemon sweep does it.
            node = cluster.nodes[a]
            if not node.quarantined:
                node.quarantined = True
                sched.index.remove(a)
                sched._request_pass()
                engine.run_until(now)

    def index_entries(self):
        index = self.scheduler.index
        return (
            [list(bucket) for bucket in index._buckets],
            [(pod, list(ids)) for pod, ids in index._full_by_pod.items()],
            list(index._pod_order),
            index._full_count,
        )


def job_args(qos, minutes):
    return st.tuples(
        st.sampled_from([1, 2, 4, 8, 8, 16, 24, 32, 64, 96]),
        qos,
        minutes,
        st.sampled_from(["p", "p", "p", "capped"]),
        st.one_of(
            st.just(()),
            st.just(()),
            st.sets(st.integers(0, N_NODES - 1), min_size=1, max_size=2),
        ),
    )


# Long, mostly LOW jobs submitted at t=0 fill the cluster, so later
# HIGH and NORMAL jobs queue and preempt.
background = st.lists(
    job_args(
        st.sampled_from([QosTier.LOW, QosTier.LOW, QosTier.NORMAL]),
        st.sampled_from([120, 300, 900, 2000]),
    ),
    min_size=4,
    max_size=16,
)
submit = st.tuples(
    st.just("submit"),
    job_args(
        st.sampled_from(list(QosTier)),
        st.sampled_from([20, 60, 119, 120, 121, 300, 900]),
    ),
    st.just(0),
)
steps = st.lists(
    st.one_of(
        submit,
        submit,
        st.tuples(
            st.just("burst"),
            job_args(
                st.sampled_from(list(QosTier)),
                st.sampled_from([60, 300, 900]),
            ),
            st.integers(2, 4),
        ),
        st.tuples(
            st.just("advance"),
            # Past 2 days, waiting jobs' ages saturate.
            st.sampled_from([1, 10, 30, 60, 119, 120, 121, 240, 2 * 24 * 60 + 1]),
            st.just(0),
        ),
        st.tuples(st.just("shield"), st.integers(0, 5), st.just(0)),
        st.tuples(
            st.just("incident"), st.integers(0, N_NODES - 1), st.booleans()
        ),
        st.tuples(st.just("quarantine"), st.integers(0, N_NODES - 1), st.just(0)),
    ),
    min_size=20,
    max_size=60,
)


@given(
    setup=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    initial=background,
    ops=steps,
)
@settings(deadline=None, max_examples=300)
# A preemption frees a whole gang: the job after the preempting one
# fits in what is left, though a request its size failed before.
@example(
    setup=(False, False, False, False),
    initial=[
        (160, QosTier.LOW, 2000, "p", ()),
        (16, QosTier.LOW, 2000, "p", ()),
        (16, QosTier.LOW, 2000, "p", ()),
    ],
    ops=[
        ("advance", 180, 0),
        ("submit", (8, QosTier.HIGH, 60, "p", ()), 0),
        ("submit", (8, QosTier.NORMAL, 60, "p", ()), 0),
        ("advance", 1, 0),
    ],
)
# A NORMAL sub-server job leaves a node it shared with a LOW one: the
# free counts stay put, but the node becomes a preemption candidate.
@example(
    setup=(False, False, False, False),
    initial=[
        (160, QosTier.NORMAL, 2000, "p", ()),
        (24, QosTier.NORMAL, 2000, "p", ()),
        (4, QosTier.NORMAL, 300, "p", ()),
        (4, QosTier.LOW, 2000, "p", ()),
    ],
    ops=[
        ("advance", 180, 0),
        ("submit", (8, QosTier.NORMAL, 60, "p", ()), 0),
        ("advance", 121, 0),
    ],
)
def test_pass_makes_the_reference_decisions(setup, initial, ops):
    reference = World(ReferenceScheduler, setup)
    fast = World(SlurmLikeScheduler, setup)
    ops = [("submit", args, 0) for args in initial] + ops
    for op, a, b in ops:
        reference.apply(op, a, b)
        fast.apply(op, a, b)
        assert fast.log == reference.log
        assert fast.index_entries() == reference.index_entries()
    # Let the queue drain, crossing many more shield boundaries.
    end = reference.engine.now + 3 * DAY
    reference.engine.run_until(end)
    fast.engine.run_until(end)
    assert fast.log == reference.log
    assert fast.index_entries() == reference.index_entries()
