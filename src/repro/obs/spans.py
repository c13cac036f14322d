"""Hierarchical span profiling on top of the event tracer.

Where :class:`~repro.obs.tracer.Tracer` answers *what happened*, spans
answer *where the wall time went*: every instrumented scope (a sweep, a
dispatch wave, a campaign, a sim phase, one scheduler pass) opens a
:class:`SpanRecord` with wall-clock (``perf_counter``) and CPU
(``process_time``) timings and a parent link, so a run profiles as a
tree::

    sweep
    └── backend.wave
        └── campaign (seed 3)
            ├── phase:generate
            ├── phase:simulate
            │   └── sched.pass  × N
            └── phase:build_trace

Spans follow the telemetry contract everywhere: off by default, gated on
the tracer's ``enabled`` flag, and never touching any RNG stream — an
instrumented run stays digest-identical to an uninstrumented one.

Each completed span has one record: a ``span.end`` event on the
tracer's sink.  ``repro obs summary`` renders p50/p95 phase tables from
those events, and :func:`spans_from_stream` plus
:func:`write_chrome_trace` turn them into Chrome trace-event JSON,
loadable in ``chrome://tracing`` / Perfetto via ``repro obs profile``.

``span.end`` events are emitted at completion in completion order, with
``sim_time`` carrying the span's *wall-clock offset* since the span
tracer was created — span streams are wall-ordered, which keeps the
per-category monotonicity invariant of
:func:`repro.obs.summary.check_stream_well_formed` intact without mixing
wall time into any simulation-time category.
"""

import json
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.tracer import Tracer

#: Category of the one event each completed span emits.
SPAN_END_CATEGORY = "span.end"


@dataclass
class SpanRecord:
    """One completed (or still-open) instrumented scope."""

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    #: Wall-clock offset (seconds) from the span tracer's epoch.
    start_s: float
    dur_s: float = 0.0
    cpu_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "cpu_s": self.cpu_s,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Maintains the open-span stack and emits completed spans.

    One :class:`SpanTracer` lives on each
    :class:`~repro.obs.telemetry.Telemetry` bundle (``telemetry.spans``)
    and shares the bundle's tracer, so span events land in the same
    stream as everything else and obey the same enabled gate.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self._stack: List[SpanRecord] = []
        self._next_id = 0
        self._epoch = time.perf_counter()

    @property
    def enabled(self) -> bool:
        """Spans follow the tracer's gate (and are off without one)."""
        return self.tracer is not None and self.tracer.enabled

    @property
    def current(self) -> Optional[SpanRecord]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Open one instrumented scope; a cheap no-op while disabled.

        The enabled check happens once at entry: a tracer that disables
        itself mid-span (sink failure) still closes the span record, it
        just stops emitting events.
        """
        if not self.enabled:
            yield None
            return
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            depth=len(self._stack),
            start_s=time.perf_counter() - self._epoch,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(record)
        cpu0 = time.process_time()
        try:
            yield record
        finally:
            record.dur_s = (
                time.perf_counter() - self._epoch
            ) - record.start_s
            record.cpu_s = time.process_time() - cpu0
            self._stack.pop()
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                # sim_time is the span's *end* wall offset: span.end
                # events leave in completion order, so the category
                # stays monotone.
                tracer.emit(
                    SPAN_END_CATEGORY,
                    name,
                    record.end_s,
                    span_id=record.span_id,
                    parent_id=record.parent_id,
                    depth=record.depth,
                    start_s=record.start_s,
                    dur_s=record.dur_s,
                    cpu_s=record.cpu_s,
                    **record.attrs,
                )


def maybe_span(telemetry, name: str, **attrs: Any):
    """Span context for an optional telemetry bundle; nullcontext when dark.

    The standard instrumentation-site shape::

        with maybe_span(self.telemetry, "sched.pass", queued=len(queue)):
            ...
    """
    if telemetry is None or not telemetry.enabled:
        return nullcontext()
    spans = getattr(telemetry, "spans", None)
    if spans is None:
        return nullcontext()
    return spans.span(name, **attrs)


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def chrome_trace_events(
    records: Iterable[Union[SpanRecord, Dict[str, Any]]],
    tid: int = 1,
) -> List[Dict[str, Any]]:
    """Convert span records to Chrome trace-event ``"X"`` (complete) events
    of process 1.

    Accepts :class:`SpanRecord` objects or their ``to_json_dict`` /
    ``span.end``-attr dicts.  Timestamps are microseconds, as the trace
    event format requires; nesting falls out of time containment on the
    shared ``tid``.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        if isinstance(record, SpanRecord):
            payload = record.to_json_dict()
        else:
            payload = dict(record)
        args = dict(payload.get("attrs", {}))
        args["cpu_s"] = payload.get("cpu_s", 0.0)
        args["span_id"] = payload.get("span_id")
        if payload.get("parent_id") is not None:
            args["parent_id"] = payload["parent_id"]
        out.append(
            {
                "name": str(payload.get("name", "span")),
                "cat": "repro",
                "ph": "X",
                "ts": float(payload.get("start_s", 0.0)) * 1e6,
                "dur": float(payload.get("dur_s", 0.0)) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    return out


def spans_from_stream(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Extract span payload dicts from one ``*.events.jsonl`` stream.

    Returns one dict per ``span.end`` record with the
    :meth:`SpanRecord.to_json_dict` keys, reconstructed from the event's
    attrs (extra attrs land under ``"attrs"``).
    """
    # Local import: summary imports nothing from here, but this module
    # reuses its strict line reader — keep the dependency one-way lazy
    # so obs submodules stay import-light and cycle-free.
    from repro.obs.summary import iter_event_dicts

    spans: List[Dict[str, Any]] = []
    for payload in iter_event_dicts(path):
        if payload.get("category") != SPAN_END_CATEGORY:
            continue
        attrs = dict(payload.get("attrs", {}))
        spans.append(
            {
                "span_id": attrs.pop("span_id", len(spans)),
                "parent_id": attrs.pop("parent_id", None),
                "name": attrs.pop("name", None)
                or payload.get("label", "span"),
                "depth": attrs.pop("depth", 0),
                "start_s": float(attrs.pop("start_s", 0.0)),
                "dur_s": float(attrs.pop("dur_s", 0.0)),
                "cpu_s": float(attrs.pop("cpu_s", 0.0)),
                "attrs": attrs,
            }
        )
    return spans


def write_chrome_trace(
    path: Union[str, os.PathLike], events: List[Dict[str, Any]]
) -> int:
    """Write :func:`chrome_trace_events` output as a Chrome trace-event
    JSON file; returns the event count.

    The document is the object form (``{"traceEvents": [...]}``), which
    both ``chrome://tracing`` and Perfetto load directly.
    """
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")
    return len(events)


# ----------------------------------------------------------------------
# phase statistics (the p50/p95 tables)
# ----------------------------------------------------------------------
def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sequence (q in [0,1])."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


@dataclass(frozen=True)
class PhaseStat:
    """Aggregate timing of all spans sharing one name."""

    name: str
    count: int
    total_s: float
    p50_s: float
    p95_s: float
    max_s: float


def phase_stats(
    durations_by_name: Dict[str, List[float]]
) -> List[PhaseStat]:
    """Per-name span statistics, ordered by descending total wall time."""
    stats: List[PhaseStat] = []
    for name, durations in durations_by_name.items():
        if not durations:
            continue
        ordered = sorted(durations)
        stats.append(
            PhaseStat(
                name=name,
                count=len(ordered),
                total_s=float(sum(ordered)),
                p50_s=percentile(ordered, 0.50),
                p95_s=percentile(ordered, 0.95),
                max_s=ordered[-1],
            )
        )
    stats.sort(key=lambda s: (-s.total_s, s.name))
    return stats


def span_phase_stats(
    records: Iterable[Union[SpanRecord, Dict[str, Any]]]
) -> List[PhaseStat]:
    """Group span records by name and compute the phase table."""
    durations: Dict[str, List[float]] = {}
    for record in records:
        if isinstance(record, SpanRecord):
            name, dur = record.name, record.dur_s
        else:
            name = str(record.get("name", "span"))
            dur = float(record.get("dur_s", 0.0))
        durations.setdefault(name, []).append(dur)
    return phase_stats(durations)


__all__ = [
    "PhaseStat",
    "SPAN_END_CATEGORY",
    "SpanRecord",
    "SpanTracer",
    "chrome_trace_events",
    "maybe_span",
    "percentile",
    "phase_stats",
    "span_phase_stats",
    "spans_from_stream",
    "write_chrome_trace",
]
