"""Deterministic replay: turn a finished trace into the live stream.

``iter_trace_stream`` yields the exact item sequence a live tap would
have published: job rows at their ``end_time``, events at their time,
node records at end of stream.  Both job and event lists are
time-ordered by construction (the scheduler closes attempts and emits
events at the engine's current time, and the engine executes in
non-decreasing time), so the merge is a two-pointer walk that preserves
each channel's internal order — which is what makes the online
estimators' floating-point accumulations bit-identical to the batch
analyses' record-order loops.

Tie-break at equal timestamps: job items before event items, mirroring
the live production order (``_finish_attempt`` appends the accounting
record before emitting ``sched.job_end``).  Node items always come last.

The stream is *production*-ordered, not globally timestamp-ordered:
``cluster.incident`` events are backdated (they carry the incident's
occurrence time but were appended at detection time, minutes later), so
an event item's time may dip below the preceding item's.  The merge
still reproduces the live tap's order exactly, because every backdated
event sits directly behind its detecting health event in the event
list — which carries the detection time and therefore gates the merge
at the same point the live scheduler produced both.  Estimators handle
the backdating via the rolling estimator's allowed-lateness window.

Replay reads a :class:`~repro.workload.trace.Trace`; a columnar trace
replays through ``ColumnarTrace.to_trace()``, which round trips exactly.
"""

from typing import Callable, Optional

from repro.live.analytics import CHANNEL_EVENT, CHANNEL_JOB, CHANNEL_NODE
from repro.workload.trace import Trace


def iter_trace_stream(trace: Trace):
    """Yield ``(time, channel, payload)`` triples in stream order."""
    jobs = trace.job_records
    events = trace.events
    i = j = 0
    n_jobs, n_events = len(jobs), len(events)
    while i < n_jobs and j < n_events:
        # Equal timestamps: the job row precedes its own (and any other)
        # event — the live scheduler appends the record first.
        if jobs[i].end_time <= events[j].time:
            yield jobs[i].end_time, CHANNEL_JOB, jobs[i]
            i += 1
        else:
            yield events[j].time, CHANNEL_EVENT, events[j]
            j += 1
    while i < n_jobs:
        yield jobs[i].end_time, CHANNEL_JOB, jobs[i]
        i += 1
    while j < n_events:
        yield events[j].time, CHANNEL_EVENT, events[j]
        j += 1
    # Node counters are end-of-campaign snapshots; they close the stream.
    for node in trace.node_records:
        yield trace.end, CHANNEL_NODE, node


def replay_trace(
    trace: Trace,
    analytics,
    on_item: Optional[Callable[[], None]] = None,
) -> None:
    """Ingest a trace's stream into a :class:`LiveAnalytics`, then close it.

    ``on_item`` runs after each ingested item — the CLI uses it for
    periodic reports.  If ``analytics`` has already ingested part of
    this stream (a restored snapshot), the already-seen prefix of each
    channel is skipped, which resumes the replay exactly where the
    snapshot left off.
    """
    skip = dict(analytics.counts)  # per-channel items already ingested
    for time, channel, payload in iter_trace_stream(trace):
        if skip.get(channel, 0) > 0:
            skip[channel] -= 1
            continue
        analytics.ingest(time, channel, payload)
        if on_item is not None:
            on_item()
    analytics.finish(trace.end)
