"""repro.obs — telemetry: structured tracing, metrics, profiling hooks.

The paper's evidence — accounting logs, health-check event streams,
repair tickets — is what a campaign's ``Trace`` records.  The
observability layer adds what the trace cannot hold: how much (metrics),
how long (spans), and the few events no other record carries.  Its
modules:

* :mod:`repro.obs.tracer` — :class:`Tracer` emits typed, timestamped
  :class:`ObsEvent` records (sim-time + wall-time, category, attrs) to a
  pluggable sink: :class:`RingBufferSink`, :class:`JsonlSink`, or
  :class:`NullSink`.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` holds labelled
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` metrics with a
  :class:`Timer` context manager; exports as JSON snapshots and
  Prometheus-style text.
* :mod:`repro.obs.telemetry` — :class:`Telemetry` bundles one tracer and
  one registry; this is what instrumented constructors accept.
* :mod:`repro.obs.summary` — :func:`summarize` renders a run report from
  emitted streams (the ``repro obs summary`` command).

Everything is **off by default**: pass no telemetry (or a disabled
bundle) and the instrumented hot seams reduce to a single flag check.
Instrumentation never touches RNG streams, so enabling telemetry cannot
change a campaign's trace digest.

Quickstart::

    from repro import CampaignConfig, ClusterSpec, RunOptions, run_campaign
    from repro.obs import Telemetry

    tel = Telemetry.to_directory("out/", stem="trace")
    spec = ClusterSpec.rsc1_like(n_nodes=32, campaign_days=10)
    trace = run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=10),
        RunOptions(telemetry=tel),
    )
    tel.finalize()          # writes out/trace.metrics.json
    # then: repro obs summary out/
"""

from repro.obs.health import (
    DEFAULT_HEALTH_DELTA_MAP,
    FleetHealthScorer,
    HealthReport,
    HealthSignals,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    load_snapshot,
)
from repro.obs.spans import (
    PhaseStat,
    SpanRecord,
    SpanTracer,
    chrome_trace_events,
    maybe_span,
    phase_stats,
    span_phase_stats,
    spans_from_stream,
    write_chrome_trace,
)
from repro.obs.summary import (
    ObsSummary,
    check_stream_well_formed,
    find_telemetry_files,
    iter_event_dicts,
    summarize,
)
from repro.obs.telemetry import EVENTS_SUFFIX, METRICS_SUFFIX, Telemetry
from repro.obs.timeline import (
    IncidentRecord,
    IncidentTimeline,
    reconstruct_timeline,
)
from repro.obs.tracer import (
    JsonlSink,
    NULL_TRACER,
    NullSink,
    ObsEvent,
    RingBufferSink,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_HEALTH_DELTA_MAP",
    "EVENTS_SUFFIX",
    "FleetHealthScorer",
    "Gauge",
    "HealthReport",
    "HealthSignals",
    "Histogram",
    "IncidentRecord",
    "IncidentTimeline",
    "JsonlSink",
    "METRICS_SUFFIX",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullSink",
    "ObsEvent",
    "ObsSummary",
    "PhaseStat",
    "RingBufferSink",
    "SpanRecord",
    "SpanTracer",
    "Telemetry",
    "Timer",
    "Tracer",
    "check_stream_well_formed",
    "chrome_trace_events",
    "find_telemetry_files",
    "iter_event_dicts",
    "load_snapshot",
    "maybe_span",
    "phase_stats",
    "reconstruct_timeline",
    "span_phase_stats",
    "spans_from_stream",
    "summarize",
    "write_chrome_trace",
]
