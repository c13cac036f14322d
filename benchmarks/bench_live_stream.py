"""Streaming-analytics smoke: ingest throughput + cross-check.

``make live-smoke`` runs this module.  It replays the shared RSC-1-like
benchmark trace through ``repro.live`` end to end, times the ingest
loop, checks the live ingest path against the batch Fig. 5 fold of the
same estimator and the delivered GPU-seconds against a rowwise sum (the
tier-1 checks live in ``tests/live/test_cross_validation.py``; this is
the fast canary), exercises a mid-stream snapshot/restore, and appends
the throughput numbers to ``BENCH_runtime.json``.
"""

import json
import time

import numpy as np

from repro.analysis.rolling_failures import failure_rate_timeline
from repro.live import EventBus, LiveAnalytics, LiveConfig, replay_trace
from repro.live.replay import iter_trace_stream
from repro.runtime import record_benchmark

from conftest import show

#: Floor for the smoke gate: the ingest loop is pure-python dict/bisect
#: work and clears this by a wide margin on one core.
MIN_EVENTS_PER_SEC = 5_000.0


def test_live_smoke_throughput_and_agreement(bench_rsc1_trace):
    trace = bench_rsc1_trace
    analytics = LiveAnalytics(LiveConfig.for_trace(trace))

    t0 = time.perf_counter()
    bus = replay_trace(trace, analytics)
    ingest_s = time.perf_counter() - t0
    n_items = bus.stats.delivered
    events_per_sec = n_items / ingest_s

    # Canary cross-checks (the tier-1 tests hold the rest).
    batch = failure_rate_timeline(
        trace,
        window_days=analytics.rolling.window_days,
        step_days=analytics.config.step_days,
    )
    assert np.array_equal(analytics.timeline().overall, batch.overall)
    assert analytics.rolling.late_events == 0
    rowwise_gpu_seconds = 0.0
    for record in trace.job_records:
        rowwise_gpu_seconds += record.gpu_seconds
    assert analytics.fleet.gpu_seconds == rowwise_gpu_seconds

    # Snapshot/restore canary: cut at the midpoint, resume, compare.
    t0 = time.perf_counter()
    items = list(iter_trace_stream(trace))
    partial = LiveAnalytics(LiveConfig.for_trace(trace))
    cut_bus = EventBus()
    cut_bus.subscribe(partial.ingest)
    for when, channel, payload in items[: len(items) // 2]:
        cut_bus.publish(when, channel, payload)
    cut_bus.flush()
    restored = LiveAnalytics.from_snapshot(
        json.loads(json.dumps(partial.snapshot()))
    )
    replay_trace(trace, restored)
    resume_s = time.perf_counter() - t0
    assert json.dumps(restored.snapshot(), sort_keys=True) == json.dumps(
        analytics.snapshot(), sort_keys=True
    )

    assert events_per_sec >= MIN_EVENTS_PER_SEC, events_per_sec

    record = record_benchmark(
        "live_stream",
        {
            "nodes": analytics.config.n_nodes,
            "span_days": round(analytics.config.span_seconds / 86400.0, 2),
            "items": n_items,
            "ingest_s": round(ingest_s, 4),
            "events_per_sec": round(events_per_sec, 1),
            "snapshot_resume_s": round(resume_s, 4),
            "rolling_bit_exact": True,
            "late_events": analytics.rolling.late_events,
        },
    )

    show(
        "live-stream smoke",
        "\n".join(
            [
                f"items ingested    {n_items:,}",
                f"ingest wall time  {ingest_s:.3f} s",
                f"throughput        {events_per_sec:,.0f} events/s",
                f"resume round trip {resume_s:.3f} s (bit-identical)",
                f"recorded to       BENCH_runtime.json "
                f"({record['bench']} @ {record['timestamp']})",
            ]
        ),
    )
