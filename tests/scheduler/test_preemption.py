import pytest

from repro.cluster.node import Node
from repro.jobtypes import JobState, QosTier
from repro.scheduler.job import Job
from repro.scheduler.preemption import PREEMPTION_SHIELD, PreemptionPolicy
from repro.sim.timeunits import HOUR
from repro.workload.spec import JobSpec


def make_job(job_id, qos, n_gpus=8, started_at=None, now=10 * HOUR):
    job = Job(
        JobSpec(
            job_id=job_id,
            jobrun_id=job_id,
            project="p",
            n_gpus=n_gpus,
            qos=qos,
            submit_time=0.0,
            work_seconds=100 * HOUR,
        )
    )
    if started_at is not None:
        job.state = JobState.RUNNING
        job.start_time = started_at
    return job


def _plan_over(residents, pending, now=10 * HOUR):
    """Plan for ``pending`` over one node per resident (node i hosts i)."""
    nodes = {i: Node(i, 0, 0) for i in range(len(residents))}
    jobs = {}
    for i, job in enumerate(residents):
        nodes[i].allocate(job.job_id, job.spec.gpus_per_node)
        jobs[job.job_id] = job
    return PreemptionPolicy().plan_with_shielded_start(
        pending,
        nodes,
        jobs,
        now=now,
        already_free=0,
        excluded=set(),
        candidate_ids=sorted(nodes),
    )[0]


def test_shield_blocks_young_jobs():
    high = make_job(1, QosTier.HIGH)
    young = make_job(2, QosTier.LOW, started_at=9 * HOUR)
    old = make_job(3, QosTier.LOW, started_at=0.0)
    now = 10 * HOUR
    assert _plan_over([young], high, now=now) is None
    plan = _plan_over([young, old], high, now=now)
    assert plan.victims == [old]
    assert [n.node_id for n in plan.freed_nodes] == [1]
    # The shield is inclusive: exactly two hours of runtime is enough.
    at_shield = make_job(4, QosTier.LOW, started_at=now - PREEMPTION_SHIELD)
    assert _plan_over([at_shield], high, now=now).victims == [at_shield]


def test_equal_or_higher_qos_not_preemptible():
    high = make_job(1, QosTier.HIGH)
    peer = make_job(2, QosTier.HIGH, started_at=0.0)
    assert _plan_over([peer], high) is None


def test_pending_jobs_not_preemptible():
    high = make_job(1, QosTier.HIGH)
    pending = make_job(2, QosTier.LOW)
    assert _plan_over([pending], high) is None


def _cluster_with_victims(now=10 * HOUR):
    nodes = {i: Node(i, i // 2, 0) for i in range(4)}
    jobs = {}
    for i in range(4):
        victim = make_job(10 + i, QosTier.LOW, started_at=0.0)
        victim.node_ids = [i]
        nodes[i].allocate(victim.job_id, 8)
        jobs[victim.job_id] = victim
    return nodes, jobs


def test_plan_frees_enough_nodes():
    policy = PreemptionPolicy()
    nodes, jobs = _cluster_with_victims()
    pending = make_job(1, QosTier.HIGH, n_gpus=16)
    plan = policy.plan_with_shielded_start(
        pending,
        nodes,
        jobs,
        now=10 * HOUR,
        already_free=0,
        excluded=set(),
        candidate_ids=sorted(nodes),
    )[0]
    assert plan is not None
    assert len(plan.freed_nodes) == 2
    assert len(plan.victims) == 2


def test_plan_accounts_for_already_free_nodes():
    policy = PreemptionPolicy()
    nodes, jobs = _cluster_with_victims()
    pending = make_job(1, QosTier.HIGH, n_gpus=16)
    plan = policy.plan_with_shielded_start(
        pending,
        nodes,
        jobs,
        now=10 * HOUR,
        already_free=1,
        excluded=set(),
        candidate_ids=sorted(nodes),
    )[0]
    assert len(plan.victims) == 1


def test_plan_returns_none_when_insufficient():
    policy = PreemptionPolicy()
    nodes, jobs = _cluster_with_victims()
    pending = make_job(1, QosTier.HIGH, n_gpus=8 * 8)
    plan = policy.plan_with_shielded_start(
        pending,
        nodes,
        jobs,
        now=10 * HOUR,
        already_free=0,
        excluded=set(),
        candidate_ids=sorted(nodes),
    )[0]
    assert plan is None


def test_plan_skips_nodes_with_shielded_residents():
    policy = PreemptionPolicy()
    nodes, jobs = _cluster_with_victims()
    # Make the job on node 0 too young to preempt.
    jobs[10].start_time = 9.5 * HOUR
    pending = make_job(1, QosTier.HIGH, n_gpus=4 * 8)
    plan = policy.plan_with_shielded_start(
        pending,
        nodes,
        jobs,
        now=10 * HOUR,
        already_free=0,
        excluded=set(),
        candidate_ids=sorted(nodes),
    )[0]
    assert plan is None  # only 3 of 4 nodes liberable


def test_multi_node_victim_deduplicated():
    policy = PreemptionPolicy()
    nodes = {i: Node(i, 0, 0) for i in range(2)}
    victim = make_job(9, QosTier.LOW, n_gpus=16, started_at=0.0)
    victim.node_ids = [0, 1]
    for i in range(2):
        nodes[i].allocate(9, 8)
    jobs = {9: victim}
    pending = make_job(1, QosTier.HIGH, n_gpus=16)
    plan = policy.plan_with_shielded_start(
        pending,
        nodes,
        jobs,
        now=10 * HOUR,
        already_free=0,
        excluded=set(),
        candidate_ids=sorted(nodes),
    )[0]
    assert plan is not None
    assert plan.victims == [victim]  # one victim even though two nodes free


def test_shield_constant_is_two_hours():
    assert PREEMPTION_SHIELD == 2 * HOUR
