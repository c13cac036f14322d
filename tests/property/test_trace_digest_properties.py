"""``trace_digest`` equals the digest of the canonical payload tree.

``repro.runtime.trace_digest`` writes the canonical JSON text of a trace
straight from its records: one ``str.format`` template per row schema
and per event-data key set, exact scalars inline, everything else
through ``canonicalize``.  The reference below is the digest as it was
defined before, kept verbatim: ``Trace.to_dict()``, the canonical tree
(built by ``reference_canonicalize``, so it does not depend on ``src``),
one ``json.dumps`` and one SHA-256.  Over traces whose rows carry NumPy
scalars, enums, non-finite event data, escaped and non-ASCII strings,
and event data whose keys sort differently escaped than plain, the two
digests must be equal, or both raise the same ``TypeError``.
"""

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.runtime import trace_digest
from repro.sim.events import EventRecord
from repro.workload.trace import NodeTraceRecord, Trace
from tests.property.test_canonicalize_properties import (
    Level,
    Tag,
    reference_canonicalize,
    values,
)


def _reference_sha256_of(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def reference_trace_digest(trace: Trace) -> str:
    """Canonical digest of a trace's observable content.

    Two traces digest equal iff every job record, node record, event, and
    piece of non-instrumentation metadata matches exactly — the property
    the determinism tests assert across serial, pooled, and cache-loaded
    executions of the same (config, seed).
    """
    payload = trace.to_dict()
    header = dict(payload["header"])
    header["metadata"] = {
        k: v for k, v in header.get("metadata", {}).items() if k != "runtime"
    }
    payload["header"] = header
    return _reference_sha256_of(reference_canonicalize(payload))


def _outcome(fn, trace):
    try:
        return "ok", fn(trace)
    except TypeError as exc:
        return "error", str(exc)


def assert_same_digest(trace):
    assert _outcome(trace_digest, trace) == _outcome(
        reference_trace_digest, trace
    )


class Opaque:
    """Neither JSON nor canonicalizable: both digests raise."""


class Sealed:
    """A second unencodable type, so the error names which came first."""


#: Keys JSON escapes, so their escaped order differs from ``str`` order
#: ("ab\x00" < "ab " as str, but "ab " < "ab\\u0000" escaped),
#: plus braces, which the row templates must escape.
TRICKY_KEYS = [
    "ab", "ab ", "ab\x00", "a\x1fb", '"', "\\", "\n", "\x7f", "é",
    "e", " ", "\U0001f600", "\ud800", "", "{", "}", "{0}", "a{b}c",
    "__dict__", Tag("ab"),
]
tricky_text = st.one_of(
    st.text(max_size=6),
    st.sampled_from([k for k in TRICKY_KEYS if type(k) is str]),
)
ints = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**31 - 1).map(np.int32),
    st.sampled_from([True, False, Level.ONE, QosTier.HIGH]),
)
optional_ints = st.one_of(st.none(), ints)
optional_text = st.one_of(st.none(), tricky_text)


@st.composite
def times(draw, n):
    """``n`` non-decreasing finite times (records reject NaN and ±inf;
    ``non_finite`` event data carries those through the digest)."""
    stamps = sorted(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )))
    kinds = st.sampled_from(["float", "float64", "int"])
    out = []
    for t in stamps:
        kind = draw(kinds)
        if kind == "float64":
            t = np.float64(t)
        elif kind == "int" and t.is_integer():
            t = int(t)
        out.append(t)
    return out


@st.composite
def job_records(draw):
    enqueue, start, end = draw(times(3))
    return JobAttemptRecord(
        job_id=draw(ints),
        attempt=draw(ints),
        jobrun_id=draw(ints),
        project=draw(tricky_text),
        qos=draw(st.one_of(
            st.sampled_from(list(QosTier)),
            st.integers(0, 5),
            st.integers(0, 5).map(np.int64),
        )),
        n_gpus=draw(ints),
        n_nodes=draw(ints),
        enqueue_time=enqueue,
        start_time=start,
        end_time=end,
        state=draw(st.sampled_from(list(JobState))),
        node_ids=draw(st.one_of(
            st.lists(ints, max_size=4).map(tuple),
            st.lists(ints, max_size=4),
        )),
        hw_component=draw(optional_text),
        hw_incident_id=draw(optional_ints),
        hw_attributed=draw(st.one_of(
            st.booleans(), st.booleans().map(np.bool_)
        )),
        failing_node_id=draw(optional_ints),
        instigator_job_id=draw(optional_ints),
    )


@st.composite
def node_records(draw):
    return NodeTraceRecord(
        node_id=draw(ints),
        rack_id=draw(ints),
        pod_id=draw(ints),
        gpu_swaps=draw(ints),
        is_lemon_truth=draw(st.one_of(
            st.booleans(), st.booleans().map(np.bool_)
        )),
        lemon_component=draw(optional_text),
        excl_jobid_count=draw(ints),
        xid_cnt=draw(ints),
        tickets=draw(ints),
        out_count=draw(ints),
        multi_node_node_fails=draw(ints),
        single_node_node_fails=draw(ints),
        single_node_jobs_seen=draw(ints),
    )


non_finite = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), np.float64("nan")]
)
data_values = st.one_of(
    values,
    non_finite,
    st.lists(non_finite, max_size=3),
    st.sets(st.one_of(st.integers(), st.text(max_size=2)), max_size=3),
)
event_data = st.one_of(
    st.dictionaries(st.sampled_from(TRICKY_KEYS), data_values, max_size=6),
    st.dictionaries(tricky_text, values, max_size=4),
    values,
    non_finite,
)


@st.composite
def events(draw):
    (time,) = draw(times(1))
    return EventRecord(
        time=time,
        kind=draw(tricky_text),
        subject=draw(st.one_of(tricky_text, ints)),
        data=draw(event_data),
    )


@st.composite
def traces(draw):
    start = draw(st.floats(-1e9, 1e9))
    return Trace(
        cluster_name=draw(tricky_text),
        n_nodes=draw(st.integers(1, 2**40)),
        n_gpus=draw(st.one_of(
            st.integers(1, 2**40), st.integers(1, 2**40).map(np.int64)
        )),
        start=start,
        end=start + draw(st.floats(min_value=1.0, max_value=1e9)),
        job_records=draw(st.lists(job_records(), max_size=4)),
        node_records=draw(st.lists(node_records(), max_size=3)),
        events=draw(st.lists(events(), max_size=8)),
        metadata=draw(st.dictionaries(
            st.one_of(tricky_text, st.just("runtime")), values, max_size=4
        )),
    )


@given(trace=traces())
@settings(deadline=None, max_examples=150)
def test_trace_digest_matches_reference(trace):
    assert_same_digest(trace)


@st.composite
def poisoned_traces(draw):
    """A trace with unencodable values in one to three random slots."""
    trace = draw(traces())
    for _ in range(draw(st.integers(1, 3))):
        poison = draw(st.sampled_from([Opaque, Sealed]))()
        table = draw(st.sampled_from(["metadata", "jobs", "nodes", "events"]))
        rows = {
            "jobs": trace.job_records,
            "nodes": trace.node_records,
            "events": trace.events,
        }.get(table)
        if not rows:
            trace.metadata[draw(tricky_text)] = poison
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if table == "jobs":
            name = draw(st.sampled_from([
                "job_id", "project", "n_gpus", "node_ids", "hw_component",
                "hw_attributed", "failing_node_id", "instigator_job_id",
            ]))
            value = (poison,) if name == "node_ids" else poison
            rows[i] = dataclasses.replace(rows[i], **{name: value})
        elif table == "nodes":
            name = draw(st.sampled_from(
                [f.name for f in dataclasses.fields(NodeTraceRecord)]
            ))
            rows[i] = dataclasses.replace(rows[i], **{name: poison})
        else:
            name = draw(st.sampled_from(["time", "kind", "subject", "data"]))
            value = {draw(tricky_text): poison} if name == "data" else poison
            rows[i] = dataclasses.replace(rows[i], **{name: value})
    return trace


@given(trace=poisoned_traces())
@settings(deadline=None, max_examples=100)
def test_unencodable_values_raise_the_reference_error(trace):
    """The new digest raises the ``TypeError`` the canonical tree raises
    first: rows in payload order, fields in row order."""
    outcome = _outcome(trace_digest, trace)
    assert outcome[0] == "error"
    assert outcome == _outcome(reference_trace_digest, trace)


@given(data=st.lists(event_data, min_size=1, max_size=6))
@settings(deadline=None, max_examples=150)
def test_event_data_key_sets_share_templates_exactly(data):
    """Events repeating a key set reuse one memoized template; a key set
    equal to an earlier one (a ``str`` subclass key hashes and compares
    like its ``str``) must still encode as its own payload does."""
    events_ = [EventRecord(float(i), "k", "s", d) for i, d in enumerate(data)]
    events_ += [EventRecord(9.0, "k", "s", d) for d in data]
    trace = Trace("c", 1, 8, 0.0, 10.0, events=events_)
    assert_same_digest(trace)


def test_str_subclass_key_after_exact_key():
    trace = Trace(
        "c", 1, 8, 0.0, 10.0,
        events=[
            EventRecord(0.0, "k", "s", {"ab": 1, "ab ": 2}),
            EventRecord(1.0, "k", "s", {Tag("ab"): 3, "ab ": Tag("x")}),
        ],
    )
    assert_same_digest(trace)


def test_first_unencodable_value_in_row_order_raises():
    """Within a row, and within event data, values encode in field and
    insertion order, not in the sorted order they are written in."""
    job = JobAttemptRecord(
        1, 0, 1, "p", QosTier.LOW, 8, 1, 0.0, 0.0, 1.0,
        JobState.COMPLETED, (0,), hw_component=Opaque(),
        failing_node_id=Sealed(),
    )
    cases = [
        {"job_records": [job]},
        {"events": [EventRecord(0.0, Opaque(), "s", {"x": Sealed()})]},
        {"events": [
            EventRecord(0.0, "k", "s", {"b": Opaque(), "a": Sealed()})
        ]},
    ]
    for rows in cases:
        trace = Trace("c", 1, 8, 0.0, 10.0, **rows)
        outcome = _outcome(trace_digest, trace)
        assert outcome == ("error", "cannot canonicalize 'Opaque' for "
                           "hashing; add explicit support or make the "
                           "config field a dataclass")
        assert outcome == _outcome(reference_trace_digest, trace)


def test_campaign_traces_match_reference(rsc1_trace, rsc2_trace):
    for trace in (rsc1_trace, rsc2_trace):
        assert trace_digest(trace) == reference_trace_digest(trace)
