import pytest

from repro.core.lemon import (
    LEMON_SIGNALS,
    LemonDetector,
    LemonPolicy,
    root_cause_table,
)
from repro.workload.trace import NodeTraceRecord


def node(node_id, lemon=False, cause=None, **signals):
    defaults = dict(
        excl_jobid_count=0,
        xid_cnt=0,
        tickets=0,
        out_count=0,
        multi_node_node_fails=0,
        single_node_node_fails=0,
        single_node_jobs_seen=20,
    )
    defaults.update(signals)
    return NodeTraceRecord(
        node_id=node_id,
        rack_id=0,
        pod_id=0,
        gpu_swaps=0,
        is_lemon_truth=lemon,
        lemon_component=cause,
        **defaults,
    )


def fleet(n_healthy=100, n_lemons=2):
    nodes = [node(i) for i in range(n_healthy)]
    for j in range(n_lemons):
        nodes.append(
            node(
                1000 + j,
                lemon=True,
                cause="gpu" if j % 2 == 0 else "host_memory",
                xid_cnt=8,
                tickets=6,
                out_count=6,
                multi_node_node_fails=5,
                single_node_node_fails=3,
            )
        )
    return nodes


def test_default_policy_flags_obvious_lemons():
    detector = LemonDetector()
    flagged = detector.detect(fleet())
    assert {rec.node_id for rec in flagged} == {1000, 1001}


def test_report_metrics():
    report = LemonDetector().evaluate(fleet())
    assert report.precision == 1.0
    assert report.recall == 1.0
    assert set(report.flagged_node_ids) <= set(report.true_lemon_ids)
    assert report.flagged_fraction == pytest.approx(2 / 102)


def test_min_signals_vote():
    # A node exceeding only one threshold must not be flagged at min=2.
    nodes = fleet() + [node(50, xid_cnt=50)]
    detector = LemonDetector(LemonPolicy(min_signals=2))
    flagged_ids = {rec.node_id for rec in detector.detect(nodes)}
    assert 50 not in flagged_ids
    single = LemonDetector(LemonPolicy(min_signals=1))
    assert 50 in {rec.node_id for rec in single.detect(nodes)}


def test_from_cdf_thresholds_are_floored():
    nodes = fleet()
    policy = LemonPolicy.from_cdf(nodes, percentile=90.0)
    # 90th percentile of mostly-zero signals is 0; the floor keeps it at 1.
    for name, cut in policy.thresholds.items():
        floor = 0.01 if name == "single_node_node_failure_rate" else 1.0
        assert cut >= floor


def test_from_cdf_detects_lemons():
    nodes = fleet(n_healthy=300, n_lemons=4)
    policy = LemonPolicy.from_cdf(nodes, percentile=99.0)
    report = LemonDetector(policy).evaluate(nodes)
    assert report.recall == 1.0


def test_policy_validation():
    with pytest.raises(ValueError, match="unknown"):
        LemonPolicy(thresholds={"bogus": 1.0})
    with pytest.raises(ValueError):
        LemonPolicy(thresholds={}, min_signals=1)
    with pytest.raises(ValueError):
        LemonPolicy(min_signals=0)
    with pytest.raises(ValueError):
        LemonPolicy.from_cdf(fleet(), percentile=100.0)
    with pytest.raises(ValueError):
        LemonPolicy.from_cdf([], percentile=90.0)


def test_excl_jobid_count_not_in_default_policy():
    # The paper found this signal uncorrelated with node failures.
    assert "excl_jobid_count" not in LemonPolicy().thresholds


def test_root_cause_table_fractions():
    nodes = fleet(n_lemons=4)
    causes = root_cause_table(nodes)
    assert causes["gpu"] == pytest.approx(0.5)
    assert causes["host_memory"] == pytest.approx(0.5)
    assert sum(causes.values()) == pytest.approx(1.0)


def test_root_cause_table_empty_cohort_raises():
    with pytest.raises(ValueError):
        root_cause_table([node(0)])


def test_lemon_signals_tuple_matches_paper():
    assert set(LEMON_SIGNALS) == {
        "excl_jobid_count",
        "xid_cnt",
        "tickets",
        "out_count",
        "multi_node_node_fails",
        "single_node_node_fails",
        "single_node_node_failure_rate",
    }
