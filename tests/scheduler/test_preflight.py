import numpy as np
import pytest

from repro import CampaignConfig, run_campaign
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.components import ComponentType
from repro.cluster.node import Node, NodeState
from repro.jobtypes import JobState, QosTier
from repro.scheduler.engine import SlurmLikeScheduler
from repro.scheduler.preflight import PreflightPolicy
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY, HOUR, MINUTE
from repro.workload.spec import JobSpec


def test_policy_validation():
    with pytest.raises(ValueError):
        PreflightPolicy(min_nodes=0)
    with pytest.raises(ValueError):
        PreflightPolicy(duration=-1.0)
    with pytest.raises(ValueError):
        PreflightPolicy(stress_days=0.0)
    with pytest.raises(ValueError):
        PreflightPolicy(efficiency=0.0)


def test_detection_probability_shape():
    policy = PreflightPolicy(stress_days=2.0, efficiency=1.0)
    healthy = policy.detection_probability(6.5e-3)
    lemon = policy.detection_probability(0.5)
    assert healthy < 0.02
    assert lemon > 0.5
    assert policy.detection_probability(0.0) == 0.0


def test_applies_only_to_large_gangs():
    policy = PreflightPolicy(min_nodes=4)
    assert not policy.applies_to(3)
    assert policy.applies_to(4)


def build(rates, preflight, n_nodes=6, seed=0):
    spec = ClusterSpec(
        name="quiet",
        n_nodes=n_nodes,
        component_rates=rates,
        campaign_days=30,
        lemon_fraction=0.0,
        enable_episodic_regimes=False,
    )
    engine = Engine()
    cluster = Cluster(spec, engine, RngStreams(seed))
    scheduler = SlurmLikeScheduler(
        engine, cluster, RngStreams(seed), preflight=preflight
    )
    cluster.start()
    return engine, cluster, scheduler


def spec_for(job_id, n_gpus, work=2 * HOUR):
    return JobSpec(
        job_id=job_id,
        jobrun_id=job_id,
        project="p",
        n_gpus=n_gpus,
        qos=QosTier.HIGH,
        submit_time=0.0,
        work_seconds=work,
    )


def test_clean_preflight_delays_start_by_battery():
    policy = PreflightPolicy(min_nodes=2, duration=10 * MINUTE)
    engine, _cluster, sched = build({ComponentType.GPU: 0.0}, policy)
    sched.submit(spec_for(1, 16))
    engine.run_until(1 * DAY)
    [record] = sched.records
    assert record.state is JobState.COMPLETED
    assert record.start_time == pytest.approx(10 * MINUTE)
    assert record.runtime == pytest.approx(2 * HOUR)


def test_small_jobs_skip_preflight():
    policy = PreflightPolicy(min_nodes=4, duration=10 * MINUTE)
    engine, _cluster, sched = build({ComponentType.GPU: 0.0}, policy)
    sched.submit(spec_for(1, 8))
    engine.run_until(1 * DAY)
    [record] = sched.records
    assert record.start_time == pytest.approx(0.0)


def test_preflight_flags_hot_nodes_and_replaces():
    # All nodes carry an absurd hazard; the battery must flag some, send
    # them to remediation, and the job must keep retrying placement.
    policy = PreflightPolicy(
        min_nodes=2, duration=5 * MINUTE, stress_days=5.0, efficiency=1.0
    )
    engine, cluster, sched = build(
        {ComponentType.GPU: 200.0}, policy, n_nodes=8, seed=3
    )
    # Disable organic failures so only preflight touches the nodes.
    cluster.injector.stop()
    sched.submit(spec_for(1, 16))
    engine.run_until(2 * DAY)
    flagged_events = [
        e for e in cluster.event_log if e.kind == "sched.preflight_failed"
    ]
    assert flagged_events, "battery should catch hot nodes"
    remediated = {e.data["node_id"] for e in flagged_events}
    for node_id in remediated:
        # Nodes that failed the battery visited the repair bench.
        tickets = [
            t for t in cluster.remediation.tickets if t.node_id == node_id
        ]
        assert tickets


def test_preflight_retries_do_not_burn_attempt_numbers():
    policy = PreflightPolicy(
        min_nodes=2, duration=5 * MINUTE, stress_days=5.0, efficiency=1.0
    )
    engine, cluster, sched = build(
        {ComponentType.GPU: 200.0}, policy, n_nodes=8, seed=3
    )
    cluster.injector.stop()
    sched.submit(spec_for(1, 16))
    engine.run_until(5 * DAY)
    records = [r for r in sched.records if r.job_id == 1]
    if records:
        # First real attempt is attempt 0 even after preflight bounces.
        assert records[0].attempt == 0


def _multi_node_hw_rate(trace):
    records = [r for r in trace.job_records if r.n_nodes >= 2]
    if not records:
        return 0.0
    return sum(1 for r in records if r.is_hw_interruption) / len(records)


def _median_large_wait(trace):
    waits = [r.queue_wait for r in trace.job_records if r.n_nodes >= 2]
    return float(np.median(waits)) if waits else 0.0


def test_preflight_ablation_trades_start_latency_for_fewer_interruptions():
    """Section V: a battery before every multi-node gang on a lemon-heavy
    32-node, 40-day cluster intercepts degraded nodes before they kill
    jobs, at the cost of slower starts."""
    spec = ClusterSpec.rsc1_like(
        n_nodes=32,
        campaign_days=40,
        lemon_fraction=0.10,
        lemon_fail_per_day=0.5,
        enable_episodic_regimes=False,
    )
    base = run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=40, seed=55)
    )
    preflighted = run_campaign(
        CampaignConfig(
            cluster_spec=spec,
            duration_days=40,
            seed=55,
            preflight=PreflightPolicy(
                min_nodes=2, duration=10 * MINUTE, stress_days=3.0
            ),
        )
    )
    assert any(e.kind == "sched.preflight_failed" for e in preflighted.events)
    assert _multi_node_hw_rate(preflighted) < _multi_node_hw_rate(base)
    assert _median_large_wait(preflighted) >= _median_large_wait(base)
