import pytest

from repro.core.attribution import AttributionPolicy, FailureAttributor
from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.events import EventRecord
from repro.sim.timeunits import MINUTE
from repro.workload.trace import Trace


def record(job_id, state, end_time, node_ids=(0,), n_gpus=8):
    return JobAttemptRecord(
        job_id=job_id,
        attempt=0,
        jobrun_id=job_id,
        project="p",
        qos=QosTier.NORMAL,
        n_gpus=n_gpus,
        n_nodes=len(node_ids),
        enqueue_time=0.0,
        start_time=end_time - 3600.0,
        end_time=end_time,
        state=state,
        node_ids=tuple(node_ids),
    )


def health_event(time, node_id, check, component, severity=3):
    return EventRecord(
        time,
        "health.check_failed",
        f"node-{node_id:05d}",
        {
            "node_id": node_id,
            "check": check,
            "component": component,
            "severity": severity,
            "incident_id": 1,
        },
    )


def make_trace(records, events):
    return Trace(
        cluster_name="T",
        n_nodes=4,
        n_gpus=32,
        start=0.0,
        end=100_000.0,
        job_records=records,
        events=events,
    )


def test_event_within_lookback_attributes():
    trace = make_trace(
        [record(1, JobState.FAILED, end_time=10_000.0)],
        [health_event(10_000.0 - 9 * MINUTE, 0, "ib_link", "ib_link")],
    )
    [att] = FailureAttributor(trace).attribute_all()
    assert att.attributed
    assert att.cause_component == "ib_link"


def test_event_within_lookahead_attributes():
    trace = make_trace(
        [record(1, JobState.NODE_FAIL, end_time=10_000.0)],
        [health_event(10_000.0 + 4 * MINUTE, 0, "pcie", "pcie")],
    )
    [att] = FailureAttributor(trace).attribute_all()
    assert att.attributed


def test_event_outside_window_does_not_attribute():
    trace = make_trace(
        [record(1, JobState.FAILED, end_time=10_000.0)],
        [
            health_event(10_000.0 - 11 * MINUTE, 0, "ib_link", "ib_link"),
            health_event(10_000.0 + 6 * MINUTE, 0, "pcie", "pcie"),
        ],
    )
    [att] = FailureAttributor(trace).attribute_all()
    assert not att.attributed
    assert att.cause_component is None


def test_event_on_other_node_ignored():
    trace = make_trace(
        [record(1, JobState.FAILED, end_time=10_000.0, node_ids=(0,))],
        [health_event(10_000.0, 3, "ib_link", "ib_link")],
    )
    [att] = FailureAttributor(trace).attribute_all()
    assert not att.attributed


def test_severity_then_priority_pick_most_likely_cause():
    trace = make_trace(
        [record(1, JobState.FAILED, end_time=10_000.0)],
        [
            health_event(9_900.0, 0, "ipmi_critical_interrupt", "psu", severity=2),
            health_event(9_950.0, 0, "pcie", "pcie", severity=3),
            health_event(9_960.0, 0, "ib_link", "ib_link", severity=3),
        ],
    )
    [att] = FailureAttributor(trace).attribute_all()
    # HIGH severity beats LOW; among HIGH ties, ib_link outranks pcie.
    assert att.cause_component == "ib_link"
    assert att.multi_attributed
    assert set(att.checks) == {"ipmi_critical_interrupt", "pcie", "ib_link"}


def test_completed_jobs_not_candidates():
    trace = make_trace(
        [record(1, JobState.COMPLETED, end_time=10_000.0)],
        [health_event(10_000.0, 0, "ib_link", "ib_link")],
    )
    assert FailureAttributor(trace).attribute_all() == []


def test_failure_rate_by_component_normalizes_by_gpu_hours():
    trace = make_trace(
        [
            record(1, JobState.FAILED, end_time=10_000.0),
            record(2, JobState.COMPLETED, end_time=20_000.0),
        ],
        [health_event(10_000.0, 0, "ib_link", "ib_link")],
    )
    rates = FailureAttributor(trace).failure_rate_by_component(per_gpu_hours=1.0)
    total_gpu_hours = 2 * 3600 * 8 / 3600
    assert rates["ib_link"] == pytest.approx(1.0 / total_gpu_hours)


def test_unattributed_node_fail_bucket():
    trace = make_trace([record(1, JobState.NODE_FAIL, end_time=10_000.0)], [])
    rates = FailureAttributor(trace).failure_rate_by_component()
    assert "unattributed_node_fail" in rates


def test_hw_failure_records_rule():
    trace = make_trace(
        [
            record(1, JobState.NODE_FAIL, end_time=10_000.0),
            record(2, JobState.FAILED, end_time=50_000.0),  # plain user failure
            record(3, JobState.FAILED, end_time=80_000.0),
        ],
        [health_event(80_000.0 - MINUTE, 0, "pcie", "pcie")],
    )
    hw = FailureAttributor(trace).hw_failure_records()
    assert {r.job_id for r in hw} == {1, 3}


def test_check_co_occurrence_fraction():
    trace = make_trace(
        [
            record(1, JobState.FAILED, end_time=10_000.0),
            record(2, JobState.FAILED, end_time=50_000.0),
        ],
        [
            health_event(9_990.0, 0, "pcie", "pcie"),
            health_event(9_995.0, 0, "xid79_fell_off_bus", "pcie"),
            health_event(49_990.0, 0, "pcie", "pcie"),
        ],
    )
    attributor = FailureAttributor(trace)
    assert attributor.check_co_occurrence_fraction(
        "pcie", "xid79_fell_off_bus"
    ) == pytest.approx(0.5)


def test_policy_validation():
    with pytest.raises(ValueError):
        AttributionPolicy(lookback=-1.0)


def test_observation5_pcie_xid79_co_occurrence_in_campaign():
    """A PCIe-heavy campaign reproduces the 'PCIe co-occurs with XID 79'
    statistic (paper: 43% on RSC-1) within a broad band."""
    from repro import CampaignConfig, ClusterSpec, run_campaign
    from repro.cluster.components import ComponentType

    spec = ClusterSpec(
        name="pcie-heavy",
        n_nodes=32,
        component_rates={ComponentType.PCIE: 60.0, ComponentType.GPU: 5.0},
        campaign_days=30,
        lemon_fraction=0.0,
        enable_episodic_regimes=False,
    )
    trace = run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=30, seed=17)
    )
    attributor = FailureAttributor(trace)
    frac = attributor.check_co_occurrence_fraction("pcie", "xid79_fell_off_bus")
    # Overlapping-coverage (0.5) + co-occurrence rule (0.43) compose to
    # well above the paper's 43%; assert the broad band.
    assert 0.3 <= frac <= 0.95
