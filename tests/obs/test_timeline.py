"""Incident timeline reconstruction: milestones, stages, blast radius."""

import json

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions
from repro.campaign import run_campaign
from repro.obs.timeline import (
    IncidentRecord,
    IncidentTimeline,
    STAGES,
    reconstruct_timeline,
)
from repro.sim.events import EventLog
from repro.workload.trace import Trace


def _synthetic_trace():
    """A hand-built trace with one fully-resolved incident and one open."""
    log = EventLog()
    log.emit(
        100.0, "cluster.incident", "node-5", node_id=5, incident_id=0,
        component="gpu", failure_class="xid", severity=2,
        attributed=True, immediate=True,
    )
    log.emit(
        160.0, "health.check_failed", "gpu_unavailable", node_id=5,
        incident_id=0, check="gpu_unavailable",
    )
    # A later detection of the same incident must not move detected_at.
    log.emit(
        300.0, "health.node_fail_heartbeat", "node-5", node_id=5,
        incident_id=0,
    )
    # A false positive never counts as a detection.
    log.emit(
        170.0, "health.check_failed", "gpu_unavailable", node_id=7,
        incident_id=-1, false_positive=True,
    )
    log.emit(
        400.0, "remediation.ticket_opened", "node-5", node_id=5,
        ticket_id=11, incident_id=0,
    )
    log.emit(
        4000.0, "remediation.ticket_closed", "node-5", node_id=5,
        ticket_id=11, gpu_swapped=True,
    )
    # Second incident: detected but never ticketed (still open).
    log.emit(
        5000.0, "cluster.incident", "node-2", node_id=2, incident_id=1,
        component="ib_link", failure_class="link_down", severity=1,
        attributed=True, immediate=False,
    )
    log.emit(
        5050.0, "health.check_failed", "ib_link", node_id=2,
        incident_id=1, check="ib_link",
    )
    log.emit(6000.0, "lemon.quarantined", "node-9", node_id=9)
    return Trace(
        cluster_name="synthetic",
        n_nodes=16,
        n_gpus=128,
        start=0.0,
        end=10_000.0,
        job_records=[],
        node_records=[],
        events=list(log),
        metadata={},
    )


def test_reconstructs_milestones_and_detection_source():
    timeline = reconstruct_timeline(_synthetic_trace())
    assert len(timeline.incidents) == 2
    first, second = timeline.incidents
    assert first.incident_id == 0
    assert first.occurred_at == 100.0
    assert first.detected_at == 160.0  # earliest detection wins
    assert first.detected_via == "check:gpu_unavailable"
    assert first.ticket_id == 11
    assert first.ticket_opened_at == 400.0
    assert first.recovered_at == 4000.0
    assert first.gpu_swapped
    assert first.resolved
    assert second.detected_via == "check:ib_link"
    assert not second.resolved
    assert second.stages() is None
    assert second.downtime_s is None
    assert timeline.quarantines == [(6000.0, 9)]


def test_stages_sum_exactly_to_downtime():
    timeline = reconstruct_timeline(_synthetic_trace())
    (incident,) = timeline.resolved()
    stages = incident.stages()
    assert stages["detection"] == 60.0
    assert stages["response"] == 240.0
    assert stages["repair"] == 3600.0
    assert sum(stages.values()) == incident.downtime_s == 3900.0
    assert timeline.total_downtime_s() == 3900.0


def test_backdated_incident_clamps_milestones():
    # cluster.incident backdates occurrence; a detection recorded
    # *before* it must clamp rather than produce a negative stage.
    record = IncidentRecord(
        incident_id=0, node_id=1, component="gpu", failure_class="x",
        severity=1, attributed=True, immediate=True,
        occurred_at=500.0, detected_at=400.0, ticket_opened_at=450.0,
        recovered_at=900.0,
    )
    m0, m1, m2, m3 = record.milestones()
    assert (m0, m1, m2, m3) == (500.0, 500.0, 500.0, 900.0)
    stages = record.stages()
    assert all(v >= 0.0 for v in stages.values())
    assert sum(stages.values()) == record.downtime_s == 400.0


def test_stage_stats_and_render():
    timeline = reconstruct_timeline(_synthetic_trace())
    stats = timeline.stage_stats()
    assert [s.name for s in stats] == list(STAGES) + ["downtime"]
    text = timeline.render()
    assert "2 incidents" in text
    assert "1 resolved" in text
    assert "1 lemon quarantines" in text
    assert "open" in text


def test_json_export(tmp_path):
    timeline = reconstruct_timeline(_synthetic_trace())
    out = tmp_path / "timeline.json"
    timeline.write_json(out)
    payload = json.loads(out.read_text())
    assert payload["n_incidents"] == 2
    assert payload["n_resolved"] == 1
    assert payload["total_downtime_s"] == 3900.0
    resolved = [i for i in payload["incidents"] if i["stages"] is not None]
    for incident in resolved:
        assert sum(incident["stages"].values()) == pytest.approx(
            incident["downtime_s"]
        )


@pytest.fixture(scope="module")
def campaign_trace():
    spec = ClusterSpec.rsc1_like(n_nodes=24, campaign_days=12)
    config = CampaignConfig(
        cluster_spec=spec, duration_days=12, seed=5, lemon_detection=True
    )
    return run_campaign(config)


def test_campaign_trace_reconstructs(campaign_trace):
    timeline = reconstruct_timeline(campaign_trace)
    incidents = timeline.incidents
    assert incidents, "12 simulated days should produce incidents"
    # Every resolved incident telescopes exactly.
    for incident in timeline.resolved():
        stages = incident.stages()
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) == pytest.approx(incident.downtime_s)
    # Incident ids are unique and sorted output is time-ordered.
    ids = [i.incident_id for i in incidents]
    assert len(set(ids)) == len(ids)
    times = [i.occurred_at for i in incidents]
    assert times == sorted(times)


def test_campaign_blast_radius_counts_interrupted_jobs(campaign_trace):
    timeline = reconstruct_timeline(campaign_trace)
    by_id = {i.incident_id: i for i in timeline.incidents}
    interrupted = [
        job
        for job in campaign_trace.job_records
        if getattr(job, "hw_incident_id", None) is not None
    ]
    counted = sum(i.jobs_interrupted for i in timeline.incidents)
    matched = [
        job for job in interrupted if int(job.hw_incident_id) in by_id
    ]
    assert counted == len(matched)
    assert sum(i.jobs_requeued for i in timeline.incidents) <= counted
