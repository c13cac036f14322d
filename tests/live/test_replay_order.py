"""The replay ordering contract, including Trace vs ColumnarTrace parity.

``iter_trace_stream`` defines the canonical stream order: jobs at their
``end_time``, events at their time, two-pointer merged with job-first
tie-breaks, node records closing the stream.  A trace that round-tripped
through the columnar representation must replay the *identical* item
sequence — this is what lets the columnar pipeline feed the same online
estimators without re-deriving the exactness arguments.
"""

import time

from repro.core.columns import ColumnarTrace
from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.live.bus import CHANNEL_EVENT, CHANNEL_JOB, CHANNEL_NODE
from repro.live import LiveAnalytics, LiveConfig, replay_trace
from repro.live.replay import iter_trace_stream
from repro.sim.events import EventRecord
from repro.workload.trace import Trace

#: Floor for end-to-end replay ingest: the loop is pure-python dict and
#: bisect work and clears this by a wide margin on one core.
MIN_EVENTS_PER_SEC = 5_000.0


def test_stream_is_production_ordered(rsc1_trace):
    """Jobs advance monotonically; only events may be backdated.

    The stream mirrors live production order.  ``cluster.incident``
    events carry occurrence times earlier than the moment they were
    appended (detection latency), so the merged stream is allowed to
    dip backwards — but only on the event channel, and never below the
    preceding item's time by more than the detecting health event that
    gates it.  Job times are non-decreasing, and node items all sit at
    the stream's end.
    """
    last_time = float("-inf")
    last_job_time = float("-inf")
    node_seen = False
    for time, channel, _payload in iter_trace_stream(rsc1_trace):
        if channel == CHANNEL_NODE:
            node_seen = True
            assert time == rsc1_trace.end
        else:
            # node items only appear at the very end of the stream
            assert not node_seen
        if channel == CHANNEL_JOB:
            assert time >= last_job_time
            assert time >= last_time  # jobs never appear backdated
            last_job_time = time
        if time > last_time:
            last_time = time


def test_stream_preserves_within_channel_order(rsc1_trace):
    streamed_jobs = [
        payload
        for _t, ch, payload in iter_trace_stream(rsc1_trace)
        if ch == CHANNEL_JOB
    ]
    streamed_events = [
        payload
        for _t, ch, payload in iter_trace_stream(rsc1_trace)
        if ch == CHANNEL_EVENT
    ]
    assert streamed_jobs == list(rsc1_trace.job_records)
    assert streamed_events == list(rsc1_trace.events)


def test_columnar_trace_replays_identical_sequence(rsc1_trace):
    """Satellite: row and columnar replays must match item for item."""
    columnar = ColumnarTrace.from_trace(rsc1_trace)
    row_stream = list(iter_trace_stream(rsc1_trace))
    col_stream = list(iter_trace_stream(columnar))
    assert len(row_stream) == len(col_stream)
    for (t1, ch1, p1), (t2, ch2, p2) in zip(row_stream, col_stream):
        assert t1 == t2
        assert ch1 == ch2
        assert p1 == p2  # records and events are value-equal dataclasses


def _tiny_trace():
    """A handcrafted trace with deliberate timestamp collisions."""
    record = JobAttemptRecord(
        job_id=1,
        attempt=0,
        jobrun_id=1,
        project="p",
        qos=QosTier.NORMAL,
        n_gpus=8,
        n_nodes=1,
        enqueue_time=0.0,
        start_time=0.0,
        end_time=100.0,
        state=JobState.COMPLETED,
        node_ids=(0,),
    )
    events = [
        EventRecord(50.0, "health.check_failed", "node-00000", {}),
        # same timestamp as the job row: must come *after* it
        EventRecord(100.0, "sched.job_end", "job-1", {}),
        EventRecord(150.0, "cluster.incident", "node-00000", {}),
    ]
    return Trace(
        cluster_name="T",
        n_nodes=1,
        n_gpus=8,
        start=0.0,
        end=200.0,
        job_records=[record],
        events=events,
        node_records=[],
    )


def test_job_precedes_event_at_equal_timestamp():
    stream = list(iter_trace_stream(_tiny_trace()))
    kinds = [
        (ch, getattr(p, "kind", "job-row")) for _t, ch, p in stream
    ]
    assert kinds == [
        ("event", "health.check_failed"),
        ("job", "job-row"),
        ("event", "sched.job_end"),
        ("event", "cluster.incident"),
    ]


def test_full_replay_ingest_throughput_floor(paper_rsc1_trace):
    analytics = LiveAnalytics(LiveConfig.for_trace(paper_rsc1_trace))
    t0 = time.perf_counter()
    bus = replay_trace(paper_rsc1_trace, analytics)
    events_per_sec = bus.stats.delivered / (time.perf_counter() - t0)
    assert events_per_sec >= MIN_EVENTS_PER_SEC, events_per_sec
