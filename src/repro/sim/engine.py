"""The discrete-event engine.

A classic event-heap design: callbacks are scheduled at absolute times and
executed in time order; ties break by insertion sequence so runs are fully
deterministic.  Events can be cancelled in O(1) (lazy deletion).

The engine is time-unit agnostic; by convention the rest of the repository
uses seconds (see :mod:`repro.sim.timeunits`).
"""

import heapq
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.obs.telemetry import Telemetry


@dataclass(slots=True)
class ScheduledEvent:
    """A pending callback on the engine's heap.

    The heap holds ``(time, seq, event)`` tuples, so it orders by
    ``(time, seq)`` in C; ``seq`` is a monotonically increasing counter
    that makes the schedule a stable total order, and no two entries
    tie on it, so events themselves are never compared.  Slotted: a
    campaign allocates one of these per scheduled callback — millions
    per run — so the per-instance dict is pure overhead.
    """

    time: float
    seq: int
    callback: Callable[[], None]
    label: str = ""
    cancelled: bool = False
    #: Owning engine; lets ``cancel`` keep the live-event counter exact
    #: without a heap scan.
    _owner: Optional["Engine"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            owner._live -= 1


class Engine:
    """A deterministic discrete-event simulation loop."""

    def __init__(self, telemetry: Optional["Telemetry"] = None):
        self._now = 0.0
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._executed = 0
        self._live = 0  # non-cancelled events on the heap, kept exact
        self._running = False
        self._stopped = False
        #: Optional obs.Telemetry bundle; None (or a disabled bundle) keeps
        #: the run loop on its untraced path.  Checked once per run_until.
        self.telemetry = telemetry

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of callbacks executed so far (cancelled ones excluded)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still on the heap.

        O(1): a live counter maintained on push/pop/cancel replaces the
        previous full-heap scan (this property sits on logging/monitoring
        hot paths).
        """
        return self._live

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``time``.

        Scheduling in the past is an error: it would silently reorder
        history and make runs non-reproducible.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        time = float(time)
        seq = next(self._seq)
        event = ScheduledEvent(
            time=time,
            seq=seq,
            callback=callback,
            label=label,
            _owner=self,
        )
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def schedule_after(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` after a non-negative ``delay``."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback, label=label)

    def stop(self) -> None:
        """Request the run loop to halt after the current callback."""
        self._stopped = True

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> None:
        """Execute events in time order until ``end_time`` (inclusive).

        Events scheduled exactly at ``end_time`` execute.  ``max_events``
        guards against runaway feedback loops in tests.

        A callback that raises leaves the engine consistent: ``_running``
        is reset, the failing event counts as executed, and the exception
        is re-raised annotated with the event's label and time
        (``err.sim_event_label`` / ``err.sim_event_time`` plus an
        ``add_note`` message), so the run can be diagnosed and — if the
        caller chooses — resumed with another ``run_until``.
        """
        if self._running:
            raise RuntimeError("engine is already running (reentrant run_until)")
        self._running = True
        self._stopped = False
        budget = max_events if max_events is not None else float("inf")
        # Telemetry is sampled once per run; enabling mid-run takes effect
        # on the next run_until call.  The disabled path costs one branch.
        telemetry = self.telemetry
        traced = telemetry is not None and telemetry.enabled
        try:
            heap = self._heap
            while heap and not self._stopped:
                if heap[0][0] > end_time:
                    break
                event = heapq.heappop(heap)[2]
                if event.cancelled:
                    continue  # counter already decremented at cancel time
                self._live -= 1
                if self._executed >= budget:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; "
                        "possible event feedback loop"
                    )
                self._now = event.time
                if traced:
                    wall_start = perf_counter()
                try:
                    event.callback()
                except BaseException as err:
                    self._executed += 1
                    err.sim_event_label = event.label
                    err.sim_event_time = event.time
                    if hasattr(err, "add_note"):
                        err.add_note(
                            f"while executing sim event "
                            f"{event.label or '<unlabeled>'!r} "
                            f"(seq {event.seq}) at t={event.time}"
                        )
                    if traced:
                        telemetry.tracer.emit(
                            "sim.error",
                            event.label,
                            event.time,
                            seq=event.seq,
                            error=type(err).__name__,
                        )
                    raise
                self._executed += 1
                if traced:
                    duration = perf_counter() - wall_start
                    group = (
                        event.label.partition(":")[0]
                        if event.label
                        else "unlabeled"
                    )
                    telemetry.metrics.histogram(
                        "sim_event_duration_seconds", label=group
                    ).observe(duration)
            # Advance the clock to the horizon even if the heap drained
            # early, so periodic measurements read a consistent end time.
            if not self._stopped and end_time > self._now:
                self._now = end_time
        finally:
            self._running = False

    def __repr__(self) -> str:
        return (
            f"Engine(now={self._now:.1f}, pending={self.pending_events}, "
            f"executed={self._executed})"
        )
