import pytest

from repro import CampaignConfig, ClusterSpec, run_campaign
from repro.cluster.node import Node
from repro.scheduler.placement import FreeNodeIndex
from repro.scheduler.reliability_aware import (
    ReliabilityAwarePlacement,
    default_node_risk,
)


def make_nodes(n=8):
    return {i: Node(i, i // 2, 0) for i in range(n)}


def test_default_risk_weights_failures_highest():
    node = Node(0, 0, 0)
    assert default_node_risk(node) == 0.0
    node.counters.tickets = 1
    ticket_only = default_node_risk(node)
    node.counters.single_node_node_fails = 1
    assert default_node_risk(node) > 2 * ticket_only


def test_risky_nodes_placed_last():
    nodes = make_nodes(4)
    nodes[0].counters.multi_node_node_fails = 5  # risk tier >> 0
    nodes[1].counters.tickets = 6
    index = FreeNodeIndex(nodes)
    policy = ReliabilityAwarePlacement()
    placed = policy.place(index, 16, excluded=set())
    assert {n.node_id for n in placed} == {2, 3}


def test_risky_nodes_still_used_when_necessary():
    nodes = make_nodes(2)
    nodes[0].counters.multi_node_node_fails = 9
    index = FreeNodeIndex(nodes)
    policy = ReliabilityAwarePlacement()
    placed = policy.place(index, 16, excluded=set())
    assert placed is not None and len(placed) == 2


def test_small_risk_differences_preserve_pod_packing():
    # 40 nodes over two pods; pod 1 has more free capacity but slightly
    # riskier nodes within the same tier -> packing should still win.
    nodes = {i: Node(i, i // 2, i // 20) for i in range(40)}
    for i in range(12):
        nodes[i].allocate(100 + i, 8)  # deplete pod 0
    for i in range(20, 40):
        nodes[i].counters.xid_cnt = 1  # risk 0.5 -> same tier as 0
    index = FreeNodeIndex(nodes)
    for i in range(12):
        index.refresh(i)
    policy = ReliabilityAwarePlacement()
    placed = policy.place(index, 8 * 8, excluded=set())
    assert {n.pod_id for n in placed} == {1}


def test_sub_server_jobs_use_base_best_fit():
    nodes = make_nodes(2)
    nodes[0].allocate(1, 6)
    nodes[0].counters.multi_node_node_fails = 50  # risky but tight fit
    index = FreeNodeIndex(nodes)
    index.refresh(0)
    policy = ReliabilityAwarePlacement()
    placed = policy.place(index, 2, excluded=set())
    assert [n.node_id for n in placed] == [0]


def test_exclusions_respected():
    nodes = make_nodes(3)
    index = FreeNodeIndex(nodes)
    policy = ReliabilityAwarePlacement()
    placed = policy.place(index, 16, excluded={0})
    assert 0 not in {n.node_id for n in placed}


def test_insufficient_capacity_returns_none():
    nodes = make_nodes(1)
    index = FreeNodeIndex(nodes)
    policy = ReliabilityAwarePlacement()
    assert policy.place(index, 16, excluded=set()) is None


def test_invalid_tier_width():
    with pytest.raises(ValueError):
        ReliabilityAwarePlacement(tier_width=0.0)


def test_integrates_with_scheduler():
    """End-to-end: the scheduler steers large jobs away from a known-bad
    node when the reliability-aware policy is plugged in."""
    from repro.cluster.cluster import Cluster, ClusterSpec
    from repro.scheduler.engine import SlurmLikeScheduler
    from repro.jobtypes import QosTier
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams
    from repro.sim.timeunits import HOUR
    from repro.workload.spec import JobSpec

    from repro.cluster.components import ComponentType

    spec = ClusterSpec(
        name="quiet",
        n_nodes=4,
        component_rates={ComponentType.GPU: 0.0},
        campaign_days=10,
        lemon_fraction=0.0,
        enable_episodic_regimes=False,
    )
    engine = Engine()
    cluster = Cluster(spec, engine, RngStreams(0))
    cluster.nodes[0].counters.multi_node_node_fails = 5
    scheduler = SlurmLikeScheduler(
        engine,
        cluster,
        RngStreams(0),
        placement=ReliabilityAwarePlacement(),
    )
    scheduler.submit(
        JobSpec(
            job_id=1, jobrun_id=1, project="p", n_gpus=24,
            qos=QosTier.HIGH, submit_time=0.0, work_seconds=HOUR,
        )
    )
    engine.run_until(2 * HOUR)
    [record] = scheduler.records
    assert 0 not in record.node_ids


def test_risk_aware_placement_ablation_steers_gangs_off_lemons():
    """Section V's proposal on a lemon-heavy 32-node, 40-day cluster
    with quarantine disabled: risk-aware placement alone routes
    multi-node gangs around repeat offenders once history accrues."""
    spec = ClusterSpec.rsc1_like(
        n_nodes=32,
        campaign_days=40,
        lemon_fraction=0.10,
        lemon_fail_per_day=0.5,
        enable_episodic_regimes=False,
    )
    base, aware = (
        run_campaign(
            CampaignConfig(
                cluster_spec=spec,
                duration_days=40,
                seed=33,
                reliability_aware_placement=aware,
            )
        )
        for aware in (False, True)
    )

    def lemon_hosted_multinode_attempts(trace):
        lemons = {r.node_id for r in trace.node_records if r.is_lemon_truth}
        return sum(
            1
            for r in trace.job_records
            if r.n_nodes >= 2 and lemons & set(r.node_ids)
        )

    def multi_node_hw_rate(trace):
        records = [r for r in trace.job_records if r.n_nodes >= 2]
        if not records:
            return 0.0
        return sum(1 for r in records if r.is_hw_interruption) / len(records)

    assert lemon_hosted_multinode_attempts(aware) < (
        lemon_hosted_multinode_attempts(base)
    )
    assert multi_node_hw_rate(aware) <= multi_node_hw_rate(base)
