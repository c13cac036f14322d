"""Whole-campaign invariants over the shared session traces."""

import pytest

from repro.jobtypes import JobState


def _job_runs(records):
    """Each job run's attempts (grouped by ``jobrun_id``), by start time."""
    by_run = {}
    for record in records:
        by_run.setdefault(record.jobrun_id, []).append(record)
    return [
        sorted(attempts, key=lambda a: a.start_time)
        for attempts in by_run.values()
    ]


def test_record_timestamps_ordered(rsc1_trace):
    for record in rsc1_trace.job_records:
        assert record.enqueue_time <= record.start_time <= record.end_time
        assert 0.0 <= record.enqueue_time
        assert record.end_time <= rsc1_trace.span_seconds + 1e-6


def test_gang_allocation_sizes_consistent(rsc1_trace):
    for record in rsc1_trace.job_records:
        assert len(record.node_ids) == record.n_nodes
        assert len(set(record.node_ids)) == record.n_nodes
        if record.n_gpus >= 8:
            assert record.n_gpus == record.n_nodes * 8


def test_no_node_oversubscription(rsc1_trace):
    """At any instant, GPUs allocated on a node never exceed 8.

    Verified by sweeping each node's attempt intervals.
    """
    per_node = {}
    for record in rsc1_trace.job_records:
        gpus = record.n_gpus if record.n_gpus < 8 else 8
        for node_id in record.node_ids:
            per_node.setdefault(node_id, []).append(
                (record.start_time, gpus)
            )
            per_node[node_id].append((record.end_time, -gpus))
    for node_id, deltas in per_node.items():
        deltas.sort()
        level = 0
        for _t, delta in deltas:
            level += delta
            assert level <= 8, f"node {node_id} oversubscribed"


def test_requeues_preserve_job_id_and_bump_attempt(rsc1_trace):
    for run in _job_runs(rsc1_trace.job_records):
        # Within each scheduler job (a run may chain several), attempt
        # counters are strictly increasing and unique.
        by_job = {}
        for attempt in run:
            by_job.setdefault(attempt.job_id, []).append(attempt)
        for attempts in by_job.values():
            numbers = [a.attempt for a in sorted(attempts, key=lambda a: a.start_time)]
            assert numbers == sorted(numbers)
            assert len(set(numbers)) == len(numbers)


def test_every_interruption_is_followed_or_terminal(rsc1_trace):
    """PREEMPTED attempts must not be the end of a run unless the campaign
    horizon cut them off; the job either resumes or is still queued."""
    for run in _job_runs(rsc1_trace.job_records):
        for attempt in run[:-1]:
            assert attempt.state in (
                JobState.PREEMPTED,
                JobState.NODE_FAIL,
                JobState.REQUEUED,
                JobState.FAILED,
                # COMPLETED mid-run = a finished segment of a chained
                # long training run; the next segment follows.
                JobState.COMPLETED,
            )


def test_hw_interruptions_carry_failing_node(rsc1_trace):
    for record in rsc1_trace.hw_failure_records():
        if record.hw_incident_id is not None:
            assert record.failing_node_id in record.node_ids
            assert record.hw_component is not None


def test_preempted_records_name_instigators(rsc1_trace):
    job_ids = {r.job_id for r in rsc1_trace.job_records}
    for record in rsc1_trace.job_records:
        if record.state is not JobState.PREEMPTED:
            continue
        assert record.instigator_job_id is not None
        assert record.instigator_job_id in job_ids
        assert record.instigator_job_id != record.job_id


def test_utilization_near_target(rsc1_trace):
    util = rsc1_trace.total_gpu_seconds() / (
        rsc1_trace.n_gpus * rsc1_trace.span_seconds
    )
    assert 0.70 <= util <= 1.0


def test_node_records_complete(rsc1_trace):
    assert len(rsc1_trace.node_records) == rsc1_trace.n_nodes
    lemons = [r for r in rsc1_trace.node_records if r.is_lemon_truth]
    for lemon in lemons:
        assert lemon.lemon_component is not None


def test_events_time_ordered_within_kind(rsc1_trace):
    incident_times = [
        e.time for e in rsc1_trace.events if e.kind == "cluster.incident"
    ]
    assert incident_times == sorted(incident_times)


def test_campaign_reproducibility():
    from repro import CampaignConfig, ClusterSpec, run_campaign

    spec = ClusterSpec.rsc1_like(n_nodes=16, campaign_days=10)
    a = run_campaign(CampaignConfig(cluster_spec=spec, duration_days=10, seed=3))
    b = run_campaign(CampaignConfig(cluster_spec=spec, duration_days=10, seed=3))
    assert a.job_records == b.job_records
    assert len(a.events) == len(b.events)


def test_different_seed_different_trace():
    from repro import CampaignConfig, ClusterSpec, run_campaign

    spec = ClusterSpec.rsc1_like(n_nodes=16, campaign_days=10)
    a = run_campaign(CampaignConfig(cluster_spec=spec, duration_days=10, seed=3))
    b = run_campaign(CampaignConfig(cluster_spec=spec, duration_days=10, seed=4))
    assert a.job_records != b.job_records


def test_trace_roundtrip_through_disk(tmp_path, rsc2_trace):
    from repro.workload.trace import Trace

    path = tmp_path / "rsc2.jsonl"
    rsc2_trace.save(path)
    loaded = Trace.load(path)
    assert loaded.job_records == rsc2_trace.job_records
    assert loaded.node_records == rsc2_trace.node_records


def test_long_training_runs_span_multiple_job_ids(rsc1_trace):
    """The paper's job-run unit: chains of scheduler jobs, one logical run."""
    runs = _job_runs(rsc1_trace.job_records)
    multi = [run for run in runs if len({a.job_id for a in run}) > 1]
    assert multi, "campaign should contain chained long training runs"
    for run in multi:
        # Segments share size and QoS, and execute back to back.
        assert len({a.n_gpus for a in run}) == 1
        assert len({a.qos for a in run}) == 1
        starts = [a.start_time for a in run]
        assert starts == sorted(starts)


def test_health_check_false_positive_calibration(rsc1_trace):
    """Section II-C: <1% of successfully completed jobs observe a failed
    health check in their attribution window."""
    from repro.core.attribution import AttributionPolicy, FailureAttributor

    attributor = FailureAttributor(rsc1_trace)
    # Attribute completed jobs instead of failed ones (the join reads the
    # policy's candidate states only when it runs).
    attributor.policy = AttributionPolicy(candidate_states=(JobState.COMPLETED,))
    completed = [
        r for r in rsc1_trace.job_records if r.state is JobState.COMPLETED
    ]
    assert completed
    observing = sum(1 for a in attributor.attribute_all() if a.attributed)
    assert observing / len(completed) < 0.01


def test_false_positive_events_are_flagged(rsc1_trace):
    fps = [
        e
        for e in rsc1_trace.events
        if e.kind == "health.check_failed" and e.data.get("false_positive")
    ]
    # ~0.01/node-day over the campaign: a handful, all warning severity.
    for event in fps:
        assert event.data["severity"] < 3
        assert event.data["incident_id"] == -1
