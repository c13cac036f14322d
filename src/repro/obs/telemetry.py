"""The telemetry bundle handed to instrumented subsystems.

A :class:`Telemetry` pairs one :class:`~repro.obs.tracer.Tracer` (the
structured event stream) with one
:class:`~repro.obs.metrics.MetricsRegistry` (the aggregate counters and
timers).  Every instrumented constructor takes ``telemetry=None``;
``None`` (or a disabled bundle) keeps the hot seams on their
zero-overhead path.

Factories cover the three deployment shapes:

* :meth:`Telemetry.disabled` — wired but off (the implicit default),
* :meth:`Telemetry.in_memory` — ring-buffer sink, for tests and notebooks,
* :meth:`Telemetry.to_directory` — JSONL stream + metrics snapshot on
  disk, the shape ``repro campaign --telemetry`` produces and
  ``repro obs summary`` consumes.
"""

import os
from pathlib import Path
from typing import List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.obs.tracer import JsonlSink, ObsEvent, RingBufferSink, Tracer

#: File suffixes for the on-disk telemetry pair written next to traces.
EVENTS_SUFFIX = ".events.jsonl"
METRICS_SUFFIX = ".metrics.json"


class Telemetry:
    """One tracer + one metrics registry, moved through the stack as a unit."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = MetricsRegistry()
        #: Hierarchical span profiler sharing this bundle's tracer (and
        #: therefore its enabled gate); see :mod:`repro.obs.spans`.
        self.spans = SpanTracer(self.tracer)
        #: Where :meth:`finalize` writes the metrics snapshot (None skips).
        self.metrics_path: Optional[str] = None
        self._finalized = False

    @property
    def enabled(self) -> bool:
        """Hot-seam gate: instrumentation emits only when this is True."""
        return self.tracer.enabled

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "Telemetry":
        """A wired-but-off bundle (useful for overhead tests)."""
        return cls()

    @classmethod
    def in_memory(cls) -> "Telemetry":
        """Enabled bundle capturing events in a bounded ring buffer."""
        return cls(tracer=Tracer(RingBufferSink()))

    @classmethod
    def to_directory(
        cls, directory: Union[str, os.PathLike], stem: str = "telemetry"
    ) -> "Telemetry":
        """Enabled bundle writing ``<stem>.events.jsonl`` under ``directory``.

        :meth:`finalize` completes the pair with ``<stem>.metrics.json``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        telemetry = cls(tracer=Tracer(JsonlSink(directory / f"{stem}{EVENTS_SUFFIX}")))
        telemetry.metrics_path = str(directory / f"{stem}{METRICS_SUFFIX}")
        return telemetry

    # ------------------------------------------------------------------
    # inspection / teardown
    # ------------------------------------------------------------------
    def events(self) -> List[ObsEvent]:
        """Captured events, for ring-buffer telemetry (else empty)."""
        sink = self.tracer.sink
        if isinstance(sink, RingBufferSink):
            return sink.events()
        return []

    def finalize(self) -> None:
        """Flush and close the stream; write the metrics snapshot if placed.

        Idempotent, so error paths may call it defensively.
        """
        if self._finalized:
            return
        self._finalized = True
        self._publish_tracer_state()
        if self.metrics_path is not None:
            self.metrics.write_snapshot(self.metrics_path)
        self.tracer.close()

    def _publish_tracer_state(self) -> None:
        """Expose the tracer's degradation state in the metrics snapshot.

        Sink-error self-disable used to be silent; now every snapshot
        records whether (and how hard) the event stream degraded.
        Registered only when there is something to report or the bundle
        was ever live, so a disabled bundle's registry stays empty.
        """
        tracer = self.tracer
        if not (
            tracer.enabled
            or tracer.self_disabled
            or tracer.sink_errors
            or tracer.events_emitted
        ):
            return
        metrics = self.metrics
        metrics.gauge("tracer_self_disabled").set(
            1.0 if tracer.self_disabled else 0.0
        )
        if tracer.sink_errors:
            metrics.counter("tracer_sink_errors_total").inc(
                tracer.sink_errors
            )

    def __repr__(self) -> str:
        return (
            f"Telemetry({'on' if self.enabled else 'off'}, "
            f"events={self.tracer.events_emitted}, metrics={len(self.metrics)})"
        )
