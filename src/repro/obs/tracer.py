"""Structured event tracing: typed, timestamped records with pluggable sinks.

The tracer carries what no other record holds: span timings
(``span.end``), engine callback errors (``sim.error``), pool retries
(``resilience.retry``) and quarantined cache entries
(``cache.quarantine``).  Simulated facts — job attempts, failures,
health checks, quarantines — live in the trace itself (the analogue of
the accounting logs and health-check streams the paper mines), and
counts in the metrics registry.  Instrumented code emits
:class:`ObsEvent` records through one :class:`Tracer`; where the events
land is a sink decision:

* :class:`RingBufferSink` — bounded in-memory buffer for tests and
  interactive inspection,
* :class:`JsonlSink` — one JSON object per line, the durable stream
  ``repro obs summary`` consumes,
* :class:`NullSink` — discard (the default).

The tracer is **off by default** and the disabled path is a single
attribute check, so instrumentation can stay wired into hot seams
permanently.  Emitting records never touches any RNG stream, so an
instrumented run is bit-identical to an uninstrumented one (the
determinism tests assert this).
"""

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union


@dataclass(frozen=True)
class ObsEvent:
    """One telemetry record.

    Attributes:
        sim_time: Simulation clock at emission (seconds).  Within one
            campaign run, non-decreasing per category.
        wall_time: Host ``perf_counter`` clock at emission.
        category: Namespaced event category (``"span.end"``,
            ``"sim.error"``, ``"cache.quarantine"``, ...).
        label: The concerned entity or engine-event label.
        attrs: Free-form JSON-serializable payload.
    """

    sim_time: float
    wall_time: float
    category: str
    label: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "sim_time": self.sim_time,
            "wall_time": self.wall_time,
            "category": self.category,
            "label": self.label,
            "attrs": self.attrs,
        }

class NullSink:
    """Discards every event (the disabled tracer's sink)."""

    def write(self, event: ObsEvent) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent :attr:`CAPACITY` events in memory."""

    CAPACITY = 65536

    def __init__(self):
        self._buffer: "deque[ObsEvent]" = deque(maxlen=self.CAPACITY)
        self.total_written = 0

    def write(self, event: ObsEvent) -> None:
        self._buffer.append(event)
        self.total_written += 1

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._buffer)

    def events(self) -> List[ObsEvent]:
        return list(self._buffer)


class JsonlSink:
    """Appends one compact JSON object per event to ``path``."""

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.total_written = 0

    def write(self, event: ObsEvent) -> None:
        self._fh.write(
            json.dumps(event.to_json_dict(), separators=(",", ":")) + "\n"
        )
        self.total_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class Tracer:
    """Emits :class:`ObsEvent` records to a sink when enabled.

    The ``enabled`` flag is a plain attribute checked by every
    instrumentation site before doing *any* work; a tracer built with no
    sink (or a :class:`NullSink`) is disabled.
    """

    #: Consecutive sink write failures tolerated before the tracer turns
    #: itself off.  Telemetry must never take the simulation down: a
    #: flaky disk degrades observability, not results.
    SINK_ERROR_LIMIT = 8

    def __init__(self, sink: Optional[object] = None):
        self.sink = sink if sink is not None else NullSink()
        self.enabled = not isinstance(self.sink, NullSink)
        self.events_emitted = 0
        self.sink_errors = 0
        #: True once the tracer turned itself off after
        #: :data:`SINK_ERROR_LIMIT` consecutive sink failures.  Distinct
        #: from ``enabled`` (which is also False for never-enabled
        #: tracers): this flag means *observability was lost mid-run*,
        #: and is surfaced in metrics snapshots and ``repro obs summary``.
        self.self_disabled = False
        self._consecutive_sink_errors = 0

    def emit(
        self, category: str, label: str, sim_time: float, **attrs: Any
    ) -> Optional[ObsEvent]:
        """Record one event; no-op (returning None) when disabled.

        A sink ``OSError``/``ValueError`` is swallowed and counted in
        ``sink_errors``; after :data:`SINK_ERROR_LIMIT` consecutive
        failures the tracer disables itself (observability degrades, the
        run continues).
        """
        if not self.enabled:
            return None
        event = ObsEvent(
            sim_time=float(sim_time),
            wall_time=time.perf_counter(),
            category=category,
            label=label,
            attrs=attrs,
        )
        try:
            self.sink.write(event)
        except (OSError, ValueError):
            self.sink_errors += 1
            self._consecutive_sink_errors += 1
            if self._consecutive_sink_errors >= self.SINK_ERROR_LIMIT:
                self.enabled = False
                self.self_disabled = True
            return None
        self._consecutive_sink_errors = 0
        self.events_emitted += 1
        return event

    def close(self) -> None:
        self.sink.close()

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"Tracer({type(self.sink).__name__}, {state}, "
            f"emitted={self.events_emitted})"
        )


#: Shared always-off tracer for call sites that want a non-None default.
NULL_TRACER = Tracer()
