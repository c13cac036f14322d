"""Preemption planning from cached resident summaries vs brute force.

``PreemptionPolicy.plan_with_shielded_start`` reads one cached summary per node (max/min
resident QoS, latest resident start, held GPUs) instead of walking every
resident job.  The reference below is the per-resident predicate and the
full-fleet scan the summaries replaced, kept verbatim.  Hypothesis drives
a small fleet through allocate, release, preflight re-baseline, drain,
remediation and return, quarantine toggles and clock steps that land
exactly on the shield boundary; after every step the plan must equal the
reference and every cached summary must equal a fresh recomputation.
A campaign-level test checks the same cache invariant after every
scheduling pass of a real simulation.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CampaignConfig, ClusterSpec
from repro.campaign import Campaign
from repro.cluster.components import GPUS_PER_NODE
from repro.cluster.node import Node, NodeState
from repro.jobtypes import JobState, QosTier
from repro.scheduler.job import Job
from repro.scheduler.placement import FreeNodeIndex
from repro.scheduler.preemption import (
    PREEMPTION_SHIELD,
    PreemptionPlan,
    PreemptionPolicy,
    resident_summary,
)
from repro.scheduler.preflight import PreflightPolicy
from repro.sim.timeunits import HOUR
from repro.workload.spec import JobSpec

N_NODES = 4
QOS = [QosTier.LOW, QosTier.NORMAL, QosTier.HIGH]


# ----------------------------------------------------------------------
# brute-force reference
# ----------------------------------------------------------------------
def _job_is_preemptible(job, by, now, shield):
    """May ``job`` be preempted in favour of ``by`` right now?"""
    if job.state is not JobState.RUNNING or job.start_time is None:
        return False
    if job.qos >= by.qos:
        return False
    return (now - job.start_time) >= shield


def _reference_plan(pending, nodes, jobs, now, already_free, excluded, shield):
    if pending.n_gpus < GPUS_PER_NODE:
        needed_nodes = 1
    else:
        needed_nodes = pending.n_gpus // GPUS_PER_NODE
    to_liberate = needed_nodes - already_free
    if to_liberate <= 0:
        return PreemptionPlan(victims=[], freed_nodes=[])
    candidates = []
    pool = (n for n in nodes.values() if n.is_schedulable())
    for node in pool:
        if node.node_id in excluded:
            continue
        if not node.running_jobs or node.fully_free:
            continue
        residents = [jobs[jid] for jid in node.running_jobs]
        if not all(
            _job_is_preemptible(job, pending, now, shield) for job in residents
        ):
            continue
        min_qos = min(int(job.qos) for job in residents)
        held = node.total_gpus - node.free_gpus
        candidates.append(((min_qos, held), node))
    if len(candidates) < to_liberate:
        return None
    candidates.sort(key=lambda item: (item[0], item[1].node_id))
    chosen_nodes = [node for _key, node in candidates[:to_liberate]]
    victim_ids = set()
    victims = []
    for node in chosen_nodes:
        for jid in node.running_jobs:
            if jid not in victim_ids:
                victim_ids.add(jid)
                victims.append(jobs[jid])
    return PreemptionPlan(victims=victims, freed_nodes=chosen_nodes)


def _as_ids(plan):
    if plan is None:
        return None
    return (
        [job.job_id for job in plan.victims],
        [node.node_id for node in plan.freed_nodes],
    )


# ----------------------------------------------------------------------
# a miniature scheduler: the same index calls the engine makes
# ----------------------------------------------------------------------
class _Fleet:
    def __init__(self):
        self.nodes = {i: Node(i, i // 2, i // 2) for i in range(N_NODES)}
        self.index = FreeNodeIndex(self.nodes)
        self.jobs = {}
        self.now = 10 * HOUR
        self._next_id = 1

    def new_job(self, n_gpus, qos):
        job = Job(
            JobSpec(
                job_id=self._next_id,
                jobrun_id=self._next_id,
                project="p",
                n_gpus=n_gpus,
                qos=qos,
                submit_time=0.0,
                work_seconds=100 * HOUR,
            )
        )
        self._next_id += 1
        return job

    def allocate(self, node_id, n_gpus, qos, state, age):
        """Place a job in ``state`` that started ``age`` ago (None: never).

        Only RUNNING with a start time is preemptible; the other three
        combinations must each keep the node out of the plan.
        """
        if n_gpus < GPUS_PER_NODE:
            gang = [self.nodes[node_id]]
            per_node = n_gpus
        else:
            count = n_gpus // GPUS_PER_NODE
            gang = [self.nodes[(node_id + k) % N_NODES] for k in range(count)]
            per_node = GPUS_PER_NODE
        if not all(node.can_host(per_node) for node in gang):
            return
        job = self.new_job(n_gpus, qos)
        self.jobs[job.job_id] = job
        for node in gang:
            node.allocate(job.job_id, per_node)
            self.index.refresh(node.node_id)
        job.node_ids = [node.node_id for node in gang]
        job.state = state
        if age is not None:
            job.start_time = self.now - age

    def _resident(self, node_id, pick):
        running = list(self.nodes[node_id].running_jobs)
        return self.jobs[running[pick % len(running)]] if running else None

    def release(self, node_id, pick=0):
        job = self._resident(node_id, pick)
        if job is None:
            return
        node_ids = list(job.node_ids)
        job.state = JobState.COMPLETED
        job.start_time = None
        for nid in node_ids:
            self.nodes[nid].release(job.job_id)
            self.index.refresh(nid)

    def rebaseline(self, node_id, pick):
        """The preflight re-baseline: the attempt (re)starts now."""
        job = self._resident(node_id, pick)
        if job is None:
            return
        job.state = JobState.RUNNING
        job.start_time = self.now
        self.index.forget_summaries(job.node_ids)

    def drain(self, node_id):
        self.nodes[node_id].start_drain()

    def remediate(self, node_id, kill_first):
        node = self.nodes[node_id]
        if node.state is NodeState.REMEDIATION:
            return
        if kill_first:
            while node.running_jobs:
                self.release(node_id)
        node.enter_remediation()
        self.index.remove(node_id)

    def give_back(self, node_id):
        node = self.nodes[node_id]
        if node.state is NodeState.REMEDIATION:
            node.return_to_service()
            self.index.refresh(node_id)

    def toggle_quarantine(self, node_id):
        node = self.nodes[node_id]
        node.quarantined = not node.quarantined
        if node.quarantined:
            self.index.remove(node_id)

    def step(self, dt):
        self.now += dt

    def step_to_shield(self, node_id, pick):
        """Move the clock to exactly one resident's start + shield."""
        job = self._resident(node_id, pick)
        if job is not None and job.start_time is not None:
            self.now = max(self.now, job.start_time + PREEMPTION_SHIELD)

    def check_plan(self, policy, pending, already_free=0, excluded=()):
        schedulable = [i for i, n in self.nodes.items() if n.is_schedulable()]
        got = policy.plan_with_shielded_start(
            pending,
            self.nodes,
            self.jobs,
            now=self.now,
            already_free=already_free,
            excluded=set(excluded),
            candidate_ids=schedulable,
            summaries=self.index.resident_summaries,
        )[0]
        want = _reference_plan(
            pending,
            self.nodes,
            self.jobs,
            self.now,
            already_free,
            set(excluded),
            policy.shield,
        )
        assert _as_ids(got) == _as_ids(want)

    def assert_summaries_fresh(self):
        for node_id, summary in self.index.resident_summaries.items():
            assert summary == resident_summary(self.nodes[node_id], self.jobs)


node_ids = st.integers(min_value=0, max_value=N_NODES - 1)
picks = st.integers(min_value=0, max_value=3)
gpu_counts = st.sampled_from([1, 2, 4, 8, 16, 24])
# Dyadic steps keep start + shield exact; the 0.1-multiples do not, so
# now - start lands an ulp either side of the shield as well.
steps = st.sampled_from(
    [0.1, 0.3, 0.5, HOUR / 3, HOUR / 2, HOUR, 1.5 * HOUR, 2 * HOUR]
)
allocs = st.tuples(
    st.just("alloc"),
    node_ids,
    gpu_counts,
    st.sampled_from(QOS),
    st.sampled_from([JobState.RUNNING] * 4 + [JobState.PENDING]),
    st.sampled_from([None, 0.0, 0.1, HOUR, 2 * HOUR, 2 * HOUR, 5 * HOUR]),
)
ops = st.one_of(
    allocs,
    allocs,
    st.tuples(st.just("release"), node_ids, picks),
    st.tuples(st.just("rebaseline"), node_ids, picks),
    st.tuples(st.just("drain"), node_ids),
    st.tuples(st.just("remediate"), node_ids, st.booleans()),
    st.tuples(st.just("return"), node_ids),
    st.tuples(st.just("quarantine"), node_ids),
    st.tuples(st.just("step"), steps),
    st.tuples(st.just("to_shield"), node_ids, picks),
    st.tuples(
        st.just("plan"),
        gpu_counts,
        st.sampled_from(QOS),
        st.integers(min_value=0, max_value=2),
        st.frozensets(node_ids, max_size=2),
    ),
)
#: Plans checked after every step: (GPUs, QoS) of the pending job.
PLAN_GRID = [
    (1, QosTier.NORMAL),
    (4, QosTier.HIGH),
    (8, QosTier.NORMAL),
    (8, QosTier.HIGH),
    (16, QosTier.HIGH),
    (24, QosTier.HIGH),
]


@given(
    seed=st.lists(allocs, min_size=2, max_size=8),
    script=st.lists(ops, max_size=60),
)
@settings(deadline=None, max_examples=300)
def test_plan_matches_per_resident_reference_under_churn(seed, script):
    fleet = _Fleet()
    policy = PreemptionPolicy()
    grid = [fleet.new_job(n_gpus, qos) for n_gpus, qos in PLAN_GRID]
    handlers = {
        "alloc": fleet.allocate,
        "release": fleet.release,
        "rebaseline": fleet.rebaseline,
        "drain": fleet.drain,
        "remediate": fleet.remediate,
        "return": fleet.give_back,
        "quarantine": fleet.toggle_quarantine,
        "step": fleet.step,
        "to_shield": fleet.step_to_shield,
    }
    for op, *args in seed + script:
        if op == "plan":
            n_gpus, qos, already_free, excluded = args
            pending = fleet.new_job(n_gpus, qos)
            fleet.check_plan(policy, pending, already_free, excluded)
        else:
            handlers[op](*args)
        fleet.assert_summaries_fresh()
        for pending in grid:
            fleet.check_plan(policy, pending)
        fleet.assert_summaries_fresh()


@pytest.mark.parametrize("start", [0.5, 0.1, 1 / 3, 7 * HOUR + 0.7])
def test_shield_boundary_matches_reference(start):
    """One ulp either side of start + shield, and on it."""
    fleet = _Fleet()
    fleet.now = start
    fleet.allocate(0, 8, QosTier.LOW, JobState.RUNNING, age=0.0)
    pending = fleet.new_job(8, QosTier.HIGH)
    policy = PreemptionPolicy()
    boundary = start + PREEMPTION_SHIELD
    for now in (
        math.nextafter(boundary, -math.inf),
        boundary,
        math.nextafter(boundary, math.inf),
    ):
        got = policy.plan_with_shielded_start(
            pending,
            fleet.nodes,
            fleet.jobs,
            now=now,
            already_free=0,
            excluded=set(),
            candidate_ids=[0],
            summaries=fleet.index.resident_summaries,
        )[0]
        want = _reference_plan(
            pending, fleet.nodes, fleet.jobs, now, 0, set(), policy.shield
        )
        assert _as_ids(got) == _as_ids(want)
        if now - start == PREEMPTION_SHIELD:
            assert got is not None  # the shield is inclusive


@pytest.mark.parametrize(
    "preflight", [None, PreflightPolicy(min_nodes=2)], ids=["plain", "preflight"]
)
def test_campaign_summaries_fresh_after_every_pass(preflight):
    """Every cached summary equals a recomputation after each pass."""
    spec = ClusterSpec.rsc1_like(n_nodes=32, campaign_days=10)
    config = CampaignConfig(
        cluster_spec=spec, duration_days=10, seed=7, preflight=preflight
    )
    campaign = Campaign(config)
    scheduler = campaign.scheduler
    nodes = campaign.cluster.nodes
    summaries = scheduler.index.resident_summaries
    body = scheduler._schedule_pass_body
    seen = {"passes": 0, "cached": 0}

    def checked_pass():
        body()
        seen["passes"] += 1
        seen["cached"] += len(summaries)
        for node_id, summary in summaries.items():
            assert summary == resident_summary(nodes[node_id], scheduler.jobs)

    scheduler._schedule_pass_body = checked_pass
    campaign.run()
    assert seen["passes"] > 100
    assert seen["cached"] > 0
