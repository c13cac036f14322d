"""A damaged trace file loads or raises ``ValueError``, and nothing else.

``Trace.load`` reads user-supplied files (every ``--trace`` command goes
through it), so a cut, scribbled-over or bit-flipped file must fail as
a ``ValueError`` naming the line, never as a ``KeyError``/``TypeError``
from deep inside a record constructor.  The saved trace below carries
every field kind the JSONL rows hold: None and int optionals, repeated
strings, ``node_ids`` lists and nested event payloads.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.events import EventRecord
from repro.workload.trace import NodeTraceRecord, Trace


def _node(node_id, **kwargs):
    fields = dict(
        node_id=node_id, rack_id=0, pod_id=0, gpu_swaps=0,
        is_lemon_truth=False, lemon_component=None, excl_jobid_count=0,
        xid_cnt=0, tickets=0, out_count=0, multi_node_node_fails=0,
        single_node_node_fails=0, single_node_jobs_seen=3,
    )
    fields.update(kwargs)
    return NodeTraceRecord(**fields)


def _fuzz_trace() -> Trace:
    common = dict(
        n_gpus=16, n_nodes=2, enqueue_time=0.0, node_ids=(0, 1),
    )
    return Trace(
        cluster_name="FUZZ",
        n_nodes=2,
        n_gpus=16,
        start=0.0,
        end=500.0,
        job_records=[
            JobAttemptRecord(
                job_id=1, attempt=0, jobrun_id=1, project="alpha",
                qos=QosTier.HIGH, start_time=5.0, end_time=100.0,
                state=JobState.NODE_FAIL, hw_component="gpu",
                hw_incident_id=4, hw_attributed=True, failing_node_id=1,
                **common,
            ),
            JobAttemptRecord(
                job_id=1, attempt=1, jobrun_id=1, project="alpha",
                qos=QosTier.HIGH, start_time=110.0, end_time=300.5,
                state=JobState.PREEMPTED, instigator_job_id=2, **common,
            ),
            JobAttemptRecord(
                job_id=2, attempt=0, jobrun_id=2, project="beta",
                qos=QosTier.LOW, n_gpus=4, n_nodes=1, enqueue_time=50.0,
                start_time=300.5, end_time=420.0, state=JobState.COMPLETED,
                node_ids=(1,),
            ),
        ],
        node_records=[
            _node(0),
            _node(1, gpu_swaps=2, is_lemon_truth=True, lemon_component="gpu",
                  xid_cnt=7, single_node_node_fails=1),
        ],
        events=[
            EventRecord(90.0, "health.check_failed", "node-1",
                        {"check": "gpu", "severity": 3, "incident_id": 4,
                         "node_id": 1}),
            EventRecord(85.0, "cluster.incident", "node-1",
                        {"component": "gpu", "node_id": 1,
                         "detail": {"xids": [79, 48], "note": None}}),
            EventRecord(300.5, "sched.job_end", "job-1", {}),
        ],
        metadata={"seed": 11, "profile": {"name": "fuzz", "mix": [1, 2.5]}},
    )


def _saved_bytes(trace: Trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        trace.save(path)
        return path.read_bytes()


SAVED = _saved_bytes(_fuzz_trace())
LINES = SAVED.splitlines(keepends=True)

#: The malformed inputs the loader once let escape as ``KeyError``
#: or ``TypeError``, each with the line it must name.
NO_TYPE = b'{"a": 1}\n'
HEADER_WITHOUT_N_NODES = SAVED.replace(b'"n_nodes": 2, ', b"", 1)
JOB_WITHOUT_PROJECT = SAVED.replace(b'"project": "beta", ', b"", 1)
NODE_WITH_UNKNOWN_FIELD = SAVED.replace(
    b'{"type": "node", ', b'{"type": "node", "bogus": 1, ', 1
)
LIST_LINE = SAVED + b"[1, 2]\n"

MALFORMED = [
    (NO_TYPE, 1),
    (HEADER_WITHOUT_N_NODES, 1),
    (JOB_WITHOUT_PROJECT, 4),
    (NODE_WITH_UNKNOWN_FIELD, 5),
    (LIST_LINE, len(LINES) + 1),
]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.jsonl"


def test_saved_bytes_are_pinned():
    # The file format: one JSON object per line, keys in field order.
    assert SAVED.decode().splitlines()[:2] == [
        '{"type": "header", "cluster_name": "FUZZ", "n_nodes": 2, '
        '"n_gpus": 16, "start": 0.0, "end": 500.0, "metadata": '
        '{"seed": 11, "profile": {"name": "fuzz", "mix": [1, 2.5]}}}',
        '{"type": "job", "job_id": 1, "attempt": 0, "jobrun_id": 1, '
        '"project": "alpha", "qos": 3, "n_gpus": 16, "n_nodes": 2, '
        '"enqueue_time": 0.0, "start_time": 5.0, "end_time": 100.0, '
        '"state": "NODE_FAIL", "node_ids": [0, 1], "hw_component": "gpu", '
        '"hw_incident_id": 4, "hw_attributed": true, "failing_node_id": 1, '
        '"instigator_job_id": null}',
    ]
    assert len(LINES) == 1 + 3 + 2 + 3
    # Every byte: the format is pinned, not only round-trippable.
    assert hashlib.sha256(SAVED).hexdigest() == (
        "2ade8f8aa770ad9149e6d44d3c44efdc0e05dc7d2175a23af6e14b9a1b3addbc"
    )


def test_round_trip_is_exact(trace_file):
    trace = _fuzz_trace()
    trace_file.write_bytes(SAVED)
    loaded = Trace.load(trace_file)
    assert loaded.to_dict() == trace.to_dict()
    assert loaded.job_records == trace.job_records
    assert loaded.node_records == trace.node_records
    assert loaded.events == trace.events
    assert _saved_bytes(loaded) == SAVED


@pytest.mark.parametrize("data, line", MALFORMED)
def test_malformed_file_names_its_line(trace_file, data, line):
    trace_file.write_bytes(data)
    with pytest.raises(ValueError, match=rf": line {line}: "):
        Trace.load(trace_file)


def _damaged(draw) -> bytes:
    how = draw(st.sampled_from(["cut", "overwrite", "flip"]))
    if how == "cut":
        return SAVED[: draw(st.integers(0, len(SAVED)))]
    if how == "overwrite":
        at = draw(st.integers(0, len(SAVED)))
        garbage = draw(st.binary(min_size=1, max_size=48))
        return SAVED[:at] + garbage + SAVED[at + len(garbage):]
    data = bytearray(SAVED)
    data[draw(st.integers(0, len(SAVED) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=st.composite(_damaged)())
@example(data=NO_TYPE)
@example(data=HEADER_WITHOUT_N_NODES)
@example(data=JOB_WITHOUT_PROJECT)
@example(data=NODE_WITH_UNKNOWN_FIELD)
@example(data=LIST_LINE)
def test_damaged_file_loads_or_raises_value_error(trace_file, data):
    trace_file.write_bytes(data)
    try:
        loaded = Trace.load(trace_file)
    except ValueError:
        return
    assert isinstance(loaded, Trace)
