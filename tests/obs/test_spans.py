"""Span tracer: hierarchy, gating, export, and stream round-trips."""

import json

import pytest

from repro.obs import Telemetry
from repro.obs.spans import (
    SPAN_END_CATEGORY,
    SpanTracer,
    chrome_trace_events,
    maybe_span,
    percentile,
    phase_stats,
    span_phase_stats,
    spans_from_stream,
    write_chrome_trace,
)
from repro.obs.summary import check_stream_well_formed
from repro.obs.tracer import JsonlSink, RingBufferSink, Tracer


def test_disabled_without_tracer():
    spans = SpanTracer()
    assert not spans.enabled
    with spans.span("x") as record:
        assert record is None
    assert spans.current is None


def test_disabled_tracer_gates_spans():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    tracer.enabled = False
    spans = SpanTracer(tracer)
    with spans.span("x") as record:
        assert record is None
    assert len(sink) == 0


def test_nesting_builds_parent_links():
    sink = RingBufferSink()
    spans = SpanTracer(Tracer(sink))
    with spans.span("outer") as outer:
        assert spans.current is outer
        with spans.span("inner", k=1) as inner:
            assert inner.parent_id == outer.span_id
            assert inner.depth == 1
            assert inner.attrs == {"k": 1}
    assert spans.current is None
    # Completion order: inner closes first.
    assert [e.label for e in sink] == ["inner", "outer"]
    assert outer.depth == 0
    assert outer.parent_id is None
    for record in (inner, outer):
        assert record.dur_s >= 0.0
        assert record.end_s == record.start_s + record.dur_s


def test_span_end_events_reach_the_sink():
    sink = RingBufferSink()
    spans = SpanTracer(Tracer(sink))
    with spans.span("a"):
        pass
    events = list(sink)
    assert len(events) == 1
    assert events[0].category == SPAN_END_CATEGORY
    assert events[0].label == "a"
    assert events[0].attrs["span_id"] == 0
    assert events[0].attrs["dur_s"] >= 0.0


class _BrokenSink:
    def write(self, event):
        raise OSError("disk gone")

    def close(self):
        pass


def test_tracer_self_disable_mid_span_still_closes_record():
    tracer = Tracer(_BrokenSink())
    spans = SpanTracer(tracer)
    with spans.span("outer") as outer:
        # Burn through the tracer's error budget while the span is open.
        for _ in range(20):
            tracer.emit("sim.error", "x", 0.0)
        assert not tracer.enabled
    # The record still closed; only the event emission was lost.
    assert spans.current is None
    assert outer.dur_s > 0.0


def test_maybe_span_dark_paths():
    with maybe_span(None, "x") as record:
        assert record is None
    telemetry = Telemetry.disabled()
    with maybe_span(telemetry, "x") as record:
        assert record is None


def test_maybe_span_live_path():
    telemetry = Telemetry.in_memory()
    with maybe_span(telemetry, "x", attempt=2) as record:
        assert record is not None
        assert record.attrs == {"attempt": 2}
    assert [e.label for e in telemetry.events()] == ["x"]


def test_span_stream_is_well_formed(tmp_path):
    path = tmp_path / "t.events.jsonl"
    tracer = Tracer(JsonlSink(path))
    spans = SpanTracer(tracer)
    for i in range(10):
        with spans.span("outer"):
            with spans.span("inner"):
                pass
    tracer.close()
    # span.end sim_times are wall offsets in completion order, so the
    # per-category monotonicity contract holds.
    assert check_stream_well_formed(path) == 20


def test_stream_round_trip(tmp_path):
    path = tmp_path / "t.events.jsonl"
    tracer = Tracer(JsonlSink(path))
    spans = SpanTracer(tracer)
    with spans.span("sweep", campaigns=3):
        with spans.span("campaign", seed=7) as record:
            pass
    tracer.close()
    loaded = spans_from_stream(path)
    assert [s["name"] for s in loaded] == ["campaign", "sweep"]
    campaign = loaded[0]
    assert campaign["parent_id"] == 0
    assert campaign["depth"] == 1
    assert campaign["attrs"] == {"seed": 7}
    # Reconstructed dicts carry the same timings the record did.
    assert campaign["dur_s"] == pytest.approx(record.dur_s)


def test_chrome_trace_events_shape():
    spans = SpanTracer(Tracer(RingBufferSink()))
    with spans.span("outer", seed=1) as outer:
        with spans.span("inner") as inner:
            pass
    events = chrome_trace_events([inner, outer], tid=5)
    assert len(events) == 2
    for event in events:
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["pid"] == 1
        assert event["tid"] == 5
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
    outer = next(e for e in events if e["name"] == "outer")
    assert outer["args"]["seed"] == 1
    assert "parent_id" not in outer["args"]
    inner = next(e for e in events if e["name"] == "inner")
    assert inner["args"]["parent_id"] == outer["args"]["span_id"]


def test_write_chrome_trace_is_loadable(tmp_path):
    spans = SpanTracer(Tracer(RingBufferSink()))
    with spans.span("a") as record:
        pass
    out = tmp_path / "trace.json"
    assert write_chrome_trace(out, chrome_trace_events([record])) == 1
    document = json.loads(out.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert document["traceEvents"][0]["name"] == "a"


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 1.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(values, 1.5)


def test_phase_stats_orders_by_total():
    stats = phase_stats({"fast": [0.001] * 3, "slow": [10.0], "empty": []})
    assert [s.name for s in stats] == ["slow", "fast"]
    fast = stats[1]
    assert fast.count == 3
    assert fast.total_s == pytest.approx(0.003)
    assert fast.p50_s == fast.p95_s == fast.max_s == 0.001


def test_span_phase_stats_accepts_records_and_dicts():
    spans = SpanTracer(Tracer(RingBufferSink()))
    with spans.span("a") as record:
        pass
    mixed = [record, {"name": "a", "dur_s": 1.0}]
    (stat,) = span_phase_stats(mixed)
    assert stat.name == "a"
    assert stat.count == 2
