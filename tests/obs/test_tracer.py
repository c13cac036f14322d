import json

from repro.obs import (
    JsonlSink,
    NULL_TRACER,
    NullSink,
    RingBufferSink,
    Tracer,
)


def test_disabled_tracer_emits_nothing():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    tracer.enabled = False
    assert tracer.emit("sim.execute", "x", 1.0, a=1) is None
    assert tracer.events_emitted == 0
    assert len(sink) == 0


def test_default_tracer_is_disabled():
    tracer = Tracer()
    assert not tracer.enabled
    assert NULL_TRACER.enabled is False


def test_sink_presence_enables():
    assert Tracer(RingBufferSink()).enabled
    assert not Tracer(NullSink()).enabled


def test_ring_buffer_captures_events_in_order():
    tracer = Tracer(RingBufferSink())
    tracer.emit("a.b", "one", 1.0, k=1)
    tracer.emit("a.c", "two", 2.0)
    events = tracer.sink.events()
    assert [e.category for e in events] == ["a.b", "a.c"]
    assert events[0].sim_time == 1.0
    assert events[0].attrs == {"k": 1}
    assert events[0].label == "one"
    assert tracer.events_emitted == 2


def test_ring_buffer_bounds_memory(monkeypatch):
    monkeypatch.setattr(RingBufferSink, "CAPACITY", 3)
    sink = RingBufferSink()
    tracer = Tracer(sink)
    for i in range(10):
        tracer.emit("c", "", float(i))
    assert len(sink) == 3
    assert sink.total_written == 10
    assert [e.sim_time for e in sink] == [7.0, 8.0, 9.0]


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "events.jsonl"
    tracer = Tracer(JsonlSink(path))
    tracer.emit("failure.injected", "node-00001", 42.5, component="gpu")
    tracer.emit("sim.execute", "end:3", 43.0, duration_s=0.001)
    tracer.close()
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    payloads = [json.loads(line) for line in lines]
    assert payloads[0]["category"] == "failure.injected"
    assert payloads[0]["attrs"]["component"] == "gpu"
    assert payloads[1]["sim_time"] == 43.0
    # wall_time is monotone within one tracer
    assert payloads[1]["wall_time"] >= payloads[0]["wall_time"]


def test_label_group_collapses_entity_ids():
    """Engine labels embed entity ids; the per-label event histogram
    keeps only the prefix before ``:``, so its cardinality stays bounded."""
    from repro.obs.telemetry import Telemetry
    from repro.sim.engine import Engine

    engine = Engine(telemetry=Telemetry.in_memory())
    for label in ("failure:1734", "failure:88", "sched-tick", ""):
        engine.schedule_at(1.0, lambda: None, label=label)
    engine.run_until(2.0)
    groups = {
        dict(key)["label"]: metric.count
        for name, key, metric in engine.telemetry.metrics
        if name == "sim_event_duration_seconds"
    }
    assert groups == {"failure": 2, "sched-tick": 1, "unlabeled": 1}


class _FailingSink:
    """Sink that fails every write (a dead disk)."""

    def write(self, event):
        raise OSError("no space left on device")

    def close(self):
        pass


def test_sink_errors_self_disable_and_are_flagged():
    tracer = Tracer(_FailingSink())
    assert not tracer.self_disabled
    for _ in range(Tracer.SINK_ERROR_LIMIT):
        tracer.emit("sim.execute", "x", 0.0)
    assert not tracer.enabled
    assert tracer.self_disabled
    assert tracer.sink_errors == Tracer.SINK_ERROR_LIMIT


def test_intermittent_sink_errors_do_not_self_disable():
    class FlakySink:
        def __init__(self):
            self.calls = 0

        def write(self, event):
            self.calls += 1
            if self.calls % 2:
                raise OSError("flaky")

        def close(self):
            pass

    tracer = Tracer(FlakySink())
    for i in range(20):
        tracer.emit("sim.execute", "x", float(i))
    # Successes reset the consecutive-error count: degraded, not dead.
    assert tracer.enabled
    assert not tracer.self_disabled
    assert tracer.sink_errors == 10


def test_finalize_publishes_tracer_state(tmp_path):
    from repro.obs import Telemetry, load_snapshot

    telemetry = Telemetry.to_directory(tmp_path, stem="t")
    telemetry.tracer.sink.close()  # the JsonlSink being replaced
    telemetry.tracer.sink = _FailingSink()
    for _ in range(Tracer.SINK_ERROR_LIMIT):
        telemetry.tracer.emit("sim.execute", "x", 0.0)
    assert telemetry.tracer.self_disabled
    telemetry.finalize()
    snapshot = load_snapshot(tmp_path / "t.metrics.json")
    gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
    counters = {c["name"]: c["value"] for c in snapshot["counters"]}
    assert gauges["tracer_self_disabled"] == 1.0
    assert counters["tracer_sink_errors_total"] == Tracer.SINK_ERROR_LIMIT


def test_finalize_keeps_disabled_bundle_registry_empty(tmp_path):
    from repro.obs import Telemetry

    telemetry = Telemetry.disabled()
    telemetry.finalize()
    assert not telemetry.metrics.to_dict()["gauges"]
