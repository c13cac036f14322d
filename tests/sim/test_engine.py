import time

import numpy as np
import pytest

from repro.obs import Telemetry
from repro.sim.engine import Engine
from repro.sim.timeunits import DAY, MINUTE


def test_events_execute_in_time_order():
    engine = Engine()
    order = []
    engine.schedule_at(5.0, lambda: order.append("b"))
    engine.schedule_at(1.0, lambda: order.append("a"))
    engine.schedule_at(9.0, lambda: order.append("c"))
    engine.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in "abc":
        engine.schedule_at(3.0, lambda t=tag: order.append(t))
    engine.run_until(3.0)
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule_at(7.5, lambda: seen.append(engine.now))
    engine.run_until(100.0)
    assert seen == [7.5]
    assert engine.now == 100.0  # clock settles at the horizon


def test_event_at_horizon_executes():
    engine = Engine()
    fired = []
    engine.schedule_at(10.0, lambda: fired.append(True))
    engine.run_until(10.0)
    assert fired == [True]


def test_event_after_horizon_does_not_execute():
    engine = Engine()
    fired = []
    engine.schedule_at(10.0001, lambda: fired.append(True))
    engine.run_until(10.0)
    assert fired == []
    assert engine.pending_events == 1


def test_scheduling_in_the_past_raises():
    engine = Engine()
    engine.schedule_at(5.0, lambda: engine.schedule_at(1.0, lambda: None))
    with pytest.raises(ValueError, match="before current time"):
        engine.run_until(10.0)


def test_negative_delay_raises():
    engine = Engine()
    with pytest.raises(ValueError, match="non-negative"):
        engine.schedule_after(-1.0, lambda: None)


def test_cancelled_event_is_skipped():
    engine = Engine()
    fired = []
    event = engine.schedule_at(2.0, lambda: fired.append("x"))
    event.cancel()
    engine.run_until(5.0)
    assert fired == []
    assert engine.executed_events == 0


def test_events_scheduled_during_run_execute():
    engine = Engine()
    order = []

    def first():
        order.append("first")
        engine.schedule_after(1.0, lambda: order.append("second"))

    engine.schedule_at(1.0, first)
    engine.run_until(10.0)
    assert order == ["first", "second"]


def test_max_events_guard_raises():
    engine = Engine()

    def loop():
        engine.schedule_after(0.0, loop)

    engine.schedule_at(0.0, loop)
    with pytest.raises(RuntimeError, match="max_events"):
        engine.run_until(1.0, max_events=100)


def test_stop_halts_the_loop():
    engine = Engine()
    order = []

    def stopper():
        order.append("stop")
        engine.stop()

    engine.schedule_at(1.0, stopper)
    engine.schedule_at(2.0, lambda: order.append("never"))
    engine.run_until(10.0)
    assert order == ["stop"]


def test_run_all_drains_heap():
    engine = Engine()
    count = []
    for i in range(5):
        engine.schedule_at(float(i), lambda: count.append(1))
    engine.run_all()
    assert len(count) == 5
    assert engine.pending_events == 0


def test_reentrant_run_raises():
    engine = Engine()

    def reenter():
        engine.run_until(10.0)

    engine.schedule_at(1.0, reenter)
    with pytest.raises(RuntimeError, match="reentrant"):
        engine.run_until(5.0)


def test_pending_events_counts_live_events():
    engine = Engine()
    events = [engine.schedule_at(float(i), lambda: None) for i in range(4)]
    assert engine.pending_events == 4
    events[1].cancel()
    assert engine.pending_events == 3  # O(1) live counter, not a heap scan
    events[1].cancel()  # double-cancel must not decrement twice
    assert engine.pending_events == 3


def test_pending_events_during_and_after_run():
    engine = Engine()
    seen = []

    def probe():
        seen.append(engine.pending_events)

    for i in range(3):
        engine.schedule_at(float(i + 1), probe)
    engine.run_until(10.0)
    # Each callback runs after its own event left the pending set.
    assert seen == [2, 1, 0]
    assert engine.pending_events == 0


def test_pending_events_with_cancellations_across_run():
    engine = Engine()
    fired = []
    keep = engine.schedule_at(5.0, lambda: fired.append("keep"))
    drop = engine.schedule_at(1.0, lambda: fired.append("drop"))
    drop.cancel()
    assert engine.pending_events == 1
    engine.run_until(10.0)
    assert fired == ["keep"]
    assert keep.cancelled is False
    assert engine.pending_events == 0


def _boom():
    raise ValueError("kaboom")


def test_callback_exception_leaves_engine_consistent():
    engine = Engine()
    fired = []
    engine.schedule_at(1.0, _boom, label="boom:7")
    engine.schedule_at(2.0, lambda: fired.append("later"))
    with pytest.raises(ValueError, match="kaboom") as excinfo:
        engine.run_until(10.0)
    err = excinfo.value
    assert err.sim_event_label == "boom:7"
    assert err.sim_event_time == 1.0
    assert any("boom:7" in note for note in getattr(err, "__notes__", []))
    # The failing event counts as executed and _running was reset...
    assert engine.executed_events == 1
    assert engine.now == 1.0
    # ...so the engine is resumable: a second run executes the survivor.
    engine.run_until(10.0)
    assert fired == ["later"]
    assert engine.executed_events == 2


def test_callback_exception_traced():
    telemetry = Telemetry.in_memory()
    engine = Engine(telemetry=telemetry)
    engine.schedule_at(3.0, _boom, label="boom")
    with pytest.raises(ValueError):
        engine.run_until(10.0)
    errors = [e for e in telemetry.events() if e.category == "sim.error"]
    assert len(errors) == 1
    assert errors[0].attrs["error"] == "ValueError"
    assert errors[0].sim_time == 3.0


def test_telemetry_traces_execution_and_cancel():
    telemetry = Telemetry.in_memory()
    engine = Engine(telemetry=telemetry)
    engine.schedule_at(1.0, lambda: None, label="tick:1")
    victim = engine.schedule_at(2.0, lambda: None, label="tick:2")
    victim.cancel()
    engine.run_until(5.0)
    by_category = {}
    for event in telemetry.events():
        by_category.setdefault(event.category, []).append(event)
    [executed] = by_category["sim.execute"]
    assert executed.label == "tick:1"
    assert executed.attrs["group"] == "tick"
    assert executed.attrs["duration_s"] >= 0
    [cancelled] = by_category["sim.cancel"]
    assert cancelled.attrs["scheduled_for"] == 2.0
    assert telemetry.metrics.counter(
        "sim_events_executed_total", label="tick"
    ).value == 1


def test_disabled_telemetry_changes_nothing():
    engine = Engine(telemetry=Telemetry.disabled())
    fired = []
    engine.schedule_at(1.0, lambda: fired.append(1))
    engine.run_until(2.0)
    assert fired == [1]
    assert engine.telemetry.tracer.events_emitted == 0


def test_event_heap_beats_a_fixed_tick_loop_on_sparse_loads():
    """DESIGN.md's case for an event heap: 200 processes firing 0.01
    times a day over 30 days.  The heap fires the expected number of
    events and does far less work than polling on a 5-minute tick."""
    n_processes, span, rate_per_day = 200, 30 * DAY, 0.01

    engine = Engine()
    rng = np.random.default_rng(0)
    fired = [0]

    def arm(i):
        gap = rng.exponential(DAY / rate_per_day)
        if engine.now + gap <= span:
            engine.schedule_after(gap, lambda i=i: fire(i))

    def fire(i):
        fired[0] += 1
        arm(i)

    t0 = time.perf_counter()
    for i in range(n_processes):
        arm(i)
    engine.run_until(span)
    event_time = time.perf_counter() - t0

    dt = 5 * MINUTE
    tick_rng = np.random.default_rng(0)
    p_fire = rate_per_day * dt / DAY
    ticked = 0
    t0 = time.perf_counter()
    for _step in range(int(span / dt)):
        ticked += int((tick_rng.random(n_processes) < p_fire).sum())
    tick_time = time.perf_counter() - t0

    expected = n_processes * span / DAY * rate_per_day
    assert abs(fired[0] - expected) < 4 * np.sqrt(expected) + 10
    assert event_time < tick_time, (event_time, tick_time, ticked)
