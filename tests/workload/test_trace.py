import pytest

from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.events import EventRecord
from repro.workload.trace import NodeTraceRecord, Trace


def make_record(job_id=1, state=JobState.COMPLETED, **kwargs):
    defaults = dict(
        job_id=job_id,
        attempt=0,
        jobrun_id=job_id,
        project="p",
        qos=QosTier.NORMAL,
        n_gpus=8,
        n_nodes=1,
        enqueue_time=0.0,
        start_time=10.0,
        end_time=100.0,
        state=state,
        node_ids=(0,),
    )
    defaults.update(kwargs)
    return JobAttemptRecord(**defaults)


def make_node(node_id=0, **kwargs):
    defaults = dict(
        node_id=node_id,
        rack_id=0,
        pod_id=0,
        gpu_swaps=1,
        is_lemon_truth=False,
        lemon_component=None,
        excl_jobid_count=0,
        xid_cnt=2,
        tickets=1,
        out_count=1,
        multi_node_node_fails=0,
        single_node_node_fails=1,
        single_node_jobs_seen=10,
    )
    defaults.update(kwargs)
    return NodeTraceRecord(**defaults)


@pytest.fixture()
def trace():
    return Trace(
        cluster_name="T",
        n_nodes=2,
        n_gpus=16,
        start=0.0,
        end=1000.0,
        job_records=[
            make_record(1),
            make_record(2, state=JobState.NODE_FAIL),
            make_record(3, state=JobState.FAILED, hw_incident_id=7,
                        hw_attributed=True, hw_component="pcie"),
        ],
        node_records=[make_node(0), make_node(1, is_lemon_truth=True,
                                              lemon_component="gpu")],
        events=[
            EventRecord(5.0, "health.check_failed", "node-0", {"check": "pcie"}),
            EventRecord(6.0, "cluster.incident", "node-0", {"component": "pcie"}),
        ],
        metadata={"seed": 1},
    )


def test_accessors(trace):
    assert trace.span_seconds == 1000.0
    node_fails = [r for r in trace.job_records if r.state is JobState.NODE_FAIL]
    assert len(node_fails) == 1
    assert len(trace.hw_failure_records()) == 2
    assert len([e for e in trace.events if e.kind.startswith("health.")]) == 1
    assert trace.total_gpu_seconds() == pytest.approx(3 * 90 * 8)
    assert [n.node_id for n in trace.node_records] == [0, 1]
    assert trace.node_records[1].is_lemon_truth


def test_single_node_failure_rate_property():
    node = make_node(single_node_node_fails=2, single_node_jobs_seen=8)
    assert node.single_node_node_failure_rate == pytest.approx(0.25)
    assert node.signal("single_node_node_failure_rate") == pytest.approx(0.25)
    with pytest.raises(KeyError):
        node.signal("nonsense")


def test_save_load_roundtrip(tmp_path, trace):
    path = tmp_path / "trace.jsonl"
    trace.save(path)
    loaded = Trace.load(path)
    assert loaded.cluster_name == trace.cluster_name
    assert loaded.n_gpus == trace.n_gpus
    assert loaded.metadata == trace.metadata
    assert loaded.job_records == trace.job_records
    assert loaded.node_records == trace.node_records
    assert len(loaded.events) == len(trace.events)
    assert loaded.events[0].kind == "health.check_failed"


def test_load_requires_header(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"type": "node", "node_id": 0}\n')
    with pytest.raises(ValueError, match="no header row"):
        Trace.load(path)


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(cluster_name="x", n_nodes=1, n_gpus=8, start=10.0, end=5.0)
    with pytest.raises(ValueError):
        Trace(cluster_name="x", n_nodes=0, n_gpus=8, start=0.0, end=5.0)


@pytest.mark.parametrize(
    "start, end",
    [
        (float("nan"), 5.0),
        (0.0, float("nan")),
        (0.0, float("inf")),
        (float("-inf"), 5.0),
    ],
)
def test_trace_rejects_non_finite_span(start, end):
    with pytest.raises(ValueError, match="finite"):
        Trace(cluster_name="x", n_nodes=1, n_gpus=8, start=start, end=end)


def test_to_dict_from_dict_exact_roundtrip(trace):
    from repro.workload.trace import TRACE_SCHEMA_VERSION

    payload = trace.to_dict()
    assert payload["schema"] == TRACE_SCHEMA_VERSION
    rebuilt = Trace.from_dict(payload)
    # Exact equality, field for field — this is what lets the trace cache
    # hand back a stored campaign as if it had just been simulated.
    assert rebuilt.cluster_name == trace.cluster_name
    assert rebuilt.n_nodes == trace.n_nodes
    assert rebuilt.n_gpus == trace.n_gpus
    assert rebuilt.start == trace.start
    assert rebuilt.end == trace.end
    assert rebuilt.metadata == trace.metadata
    assert rebuilt.job_records == trace.job_records
    assert rebuilt.node_records == trace.node_records
    assert rebuilt.events == trace.events
    # And the round trip is a fixed point: dict -> Trace -> dict is stable.
    assert rebuilt.to_dict() == payload


def test_from_dict_rejects_schema_mismatch(trace):
    from repro.workload.trace import TRACE_SCHEMA_VERSION

    payload = trace.to_dict()
    payload["schema"] = TRACE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        Trace.from_dict(payload)


def test_roundtrip_preserves_typed_fields(trace):
    rebuilt = Trace.from_dict(trace.to_dict())
    record = rebuilt.job_records[0]
    assert isinstance(record.state, JobState)
    assert isinstance(record.qos, QosTier)
    assert isinstance(record.node_ids, tuple)
    assert isinstance(rebuilt.events[0], EventRecord)
    assert isinstance(rebuilt.node_records[1], NodeTraceRecord)
    assert rebuilt.node_records[1].is_lemon_truth
