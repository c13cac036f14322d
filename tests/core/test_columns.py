"""Columnar trace blocks: exact round trips and vectorized accessors.

The contract under test is exactness (see `repro.core.columns`): the
columnar form must reproduce the row form bit-for-bit at the
`Trace.to_dict()` / `trace_digest` level, and the convenience vectors
must equal the rowwise predicates they replace, element for element.
"""

import numpy as np
import pytest

from repro.core.columns import (
    ColumnarTrace,
    EventColumns,
    JOB_STATES,
    JobColumns,
    StringTable,
    next_power_of_two,
    pack_strings,
    state_code,
    unpack_strings,
)
from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.runtime import trace_digest
from repro.sim.events import EventRecord
from repro.stats.quantiles import power_of_two_bucket
from repro.workload.trace import Trace


# ----------------------------------------------------------------------
# whole-trace round trips (a real simulated campaign)
# ----------------------------------------------------------------------
def test_columnar_roundtrip_is_digest_exact(rsc1_trace):
    cols = ColumnarTrace.from_trace(rsc1_trace)
    back = cols.to_trace()
    assert trace_digest(back) == trace_digest(rsc1_trace)
    # Row objects themselves survive exactly (tuples, Nones, enums).
    assert back.job_records == rsc1_trace.job_records
    assert back.node_records == rsc1_trace.node_records


def test_columnar_from_dict_roundtrip(rsc1_trace):
    payload = rsc1_trace.to_dict()
    cols = ColumnarTrace.from_dict(payload)
    assert trace_digest(cols.to_trace()) == trace_digest(rsc1_trace)


def test_npz_roundtrip_is_digest_exact(rsc1_trace, tmp_path):
    cols = ColumnarTrace.from_trace(rsc1_trace)
    target = tmp_path / "trace.npz"
    cols.save_npz(target)
    loaded = ColumnarTrace.load_npz(target)
    assert trace_digest(loaded.to_trace()) == trace_digest(rsc1_trace)
    assert loaded.metadata == rsc1_trace.metadata


def test_trace_columns_property_is_cached(rsc1_trace):
    assert rsc1_trace.columns is rsc1_trace.columns
    # A trace materialized *from* columns hands the blocks along.
    back = ColumnarTrace.from_trace(rsc1_trace).to_trace()
    assert back.columns is not None
    assert back.columns.jobs is back._columns.jobs


def test_empty_trace_roundtrip(tmp_path):
    empty = Trace(
        cluster_name="RSC-1-like",
        n_nodes=4,
        n_gpus=32,
        start=0.0,
        end=100.0,
        metadata={"seed": 0},
    )
    cols = ColumnarTrace.from_trace(empty)
    assert len(cols.jobs) == len(cols.nodes) == len(cols.events) == 0
    assert cols.jobs.to_records() == []
    assert cols.events.to_records() == []
    target = tmp_path / "empty.npz"
    cols.save_npz(target)
    loaded = ColumnarTrace.load_npz(target)
    assert trace_digest(loaded.to_trace()) == trace_digest(empty)


# ----------------------------------------------------------------------
# job columns: edge-case rows
# ----------------------------------------------------------------------
def _edge_case_records():
    return [
        JobAttemptRecord(
            job_id=1,
            attempt=0,
            jobrun_id=10,
            project="prétraining-μ",  # non-ASCII project name
            qos=QosTier.HIGH,
            n_gpus=2048,
            n_nodes=256,
            enqueue_time=0.0,
            start_time=1.5,
            end_time=7200.25,
            state=JobState.NODE_FAIL,
            node_ids=tuple(range(256)),
            hw_component="gpu",
            hw_incident_id=77,
            hw_attributed=True,
            failing_node_id=13,
        ),
        JobAttemptRecord(
            job_id=2,
            attempt=3,
            jobrun_id=11,
            project="eval",
            qos=QosTier.LOW,
            n_gpus=1,
            n_nodes=1,
            enqueue_time=5.0,
            start_time=5.0,
            end_time=5.0,  # zero runtime
            state=JobState.PREEMPTED,
            node_ids=(42,),
            instigator_job_id=1,
        ),
        JobAttemptRecord(
            job_id=3,
            attempt=0,
            jobrun_id=12,
            project="eval",
            qos=QosTier.NORMAL,
            n_gpus=8,
            n_nodes=1,
            enqueue_time=0.0,
            start_time=2.0,
            end_time=50.0,
            state=JobState.COMPLETED,
            node_ids=(7,),
        ),
    ]


def test_job_columns_roundtrip_edge_cases():
    records = _edge_case_records()
    cols = JobColumns.from_records(records)
    assert cols.to_records() == records
    # Per-row accessors agree with the bulk path.
    assert [cols.record(i) for i in range(len(cols))] == records
    assert cols.node_ids_of(0) == tuple(range(256))
    # None-ness is carried by masks, not sentinel collisions.
    assert cols.hw_incident_null.tolist() == [False, True, True]
    assert cols.instigator_null.tolist() == [True, False, True]
    assert cols.hw_component_code[1] == -1


def _is_hw_failure(record, use_ground_truth):
    """Per-record statement of the MTTF hardware-failure rule."""
    if use_ground_truth:
        return record.is_hw_interruption
    # Observable rule: NODE_FAIL always counts; FAILED/REQUEUED count when
    # a health check was attributed.
    if record.state is JobState.NODE_FAIL:
        return True
    return (
        record.state in (JobState.FAILED, JobState.REQUEUED)
        and record.hw_attributed
    )


def test_job_columns_vector_accessors_match_rowwise(rsc1_trace):
    cols = rsc1_trace.columns.jobs
    records = rsc1_trace.job_records
    np.testing.assert_array_equal(
        cols.is_hw_interruption,
        np.array([r.is_hw_interruption for r in records]),
    )
    for gt in (True, False):
        np.testing.assert_array_equal(
            cols.hw_failure_mask(use_ground_truth=gt),
            np.array([_is_hw_failure(r, gt) for r in records]),
        )
    np.testing.assert_array_equal(
        cols.runtime, np.array([r.runtime for r in records])
    )
    np.testing.assert_array_equal(
        cols.gpu_seconds, np.array([r.gpu_seconds for r in records])
    )
    expected_buckets = [
        power_of_two_bucket(((r.n_gpus + 7) // 8) * 8, minimum=8)
        for r in records
    ]
    np.testing.assert_array_equal(cols.size_bucket(), expected_buckets)


def test_state_codes_follow_declaration_order():
    for i, state in enumerate(JOB_STATES):
        assert state_code(state) == i
    assert len(JOB_STATES) == len(set(JOB_STATES))


# ----------------------------------------------------------------------
# event columns
# ----------------------------------------------------------------------
def test_event_columns_roundtrip_non_ascii_payload():
    events = [
        EventRecord(
            time=1.0,
            kind="health.check_failed",
            subject="node-00001",
            data={"node_id": 1, "check": "dcgm", "severity": 2, "note": "café"},
        ),
        EventRecord(
            time=2.5,
            kind="cluster.incident",
            subject="node-00002",
            data={"node_id": 2, "component": "gpu", "incident_id": 9},
        ),
    ]
    cols = EventColumns.from_records(events)
    assert cols.to_records() == events  # utf-8 fallback path
    assert cols.data_of(0)["note"] == "café"


def test_event_columns_roundtrip_ascii_fast_path(rsc1_trace):
    cols = rsc1_trace.columns.events
    assert cols.to_records() == rsc1_trace.events


def test_event_mask_matches_event_log_filter(rsc1_trace):
    cols = rsc1_trace.columns.events
    log = rsc1_trace.events_log()
    for kind in ("health.", "health.check_failed", "cluster.incident"):
        expected = [e.time for e in log.filter(kind)]
        assert cols.times_for_kind(kind).tolist() == expected
    # A kind that never occurred: empty mask, not an error.
    assert not cols.mask_for_kind("no.such.kind").any()
    assert not cols.mask_for_kind("no-prefix.").any()
    assert cols.code_of_kind("no.such.kind") == -1


def test_event_extracted_columns_match_payloads(rsc1_trace):
    cols = rsc1_trace.columns.events
    for i, event in enumerate(rsc1_trace.events[:500]):
        data = event.data
        node_id = data.get("node_id")
        if isinstance(node_id, int):
            assert cols.node_id[i] == node_id
        else:
            assert cols.node_id[i] == -1
        component = data.get("component")
        if isinstance(component, str):
            assert cols.component_table[cols.component_code[i]] == component
        else:
            assert cols.component_code[i] == -1


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def test_pack_unpack_strings():
    strings = ["", "ascii", "héllo", "a" * 1000]
    blob, offsets = pack_strings(strings)
    assert unpack_strings(blob, offsets) == strings
    assert unpack_strings(*pack_strings([])) == []


def test_string_table_interning():
    table = StringTable()
    assert table.intern(None) == -1
    a = table.intern("gpu")
    assert table.intern("gpu") == a  # stable
    b = table.intern("nic")
    assert b == a + 1
    assert table.lookup(a) == "gpu"
    assert table.lookup(-1) is None
    assert len(table) == 2


def test_next_power_of_two_matches_scalar_reference():
    values = np.arange(1, 5000)
    expected = [power_of_two_bucket(int(v)) for v in values]
    assert next_power_of_two(values).tolist() == expected
    expected8 = [power_of_two_bucket(int(v), minimum=8) for v in values]
    assert next_power_of_two(values, minimum=8).tolist() == expected8


def test_next_power_of_two_rejects_bad_input():
    with pytest.raises(ValueError, match="power of two"):
        next_power_of_two(np.array([1]), minimum=3)
    with pytest.raises(ValueError, match="positive"):
        next_power_of_two(np.array([0]))
