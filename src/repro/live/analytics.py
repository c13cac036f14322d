"""`LiveAnalytics`: the estimator bundle behind one live session.

One instance takes the stream one item at a time through ``ingest``,
routes each item to every estimator, tracks the watermark, and serves
snapshots, reports, and telemetry.  Snapshots are plain JSON documents;
``LiveAnalytics.from_snapshot`` restores an instance whose continued
ingestion is bit-identical to one that never stopped (test-enforced;
Python's JSON round-trips finite floats exactly).
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.analysis.report import render_table
from repro.analysis.rolling_failures import (
    FailureRateTimeline,
    default_window_days,
)
from repro.core.estimators import (
    ETTRForecaster,
    FleetGauges,
    LiveLemonEstimator,
    OnlineMTTFEstimator,
    RollingFailureRateEstimator,
)
from repro.obs.health import FleetHealthScorer, HealthReport, HealthSignals
from repro.sim.timeunits import DAY, HOUR

#: Bump when the snapshot document shape changes; restore rejects
#: mismatches rather than guessing.
LIVE_SNAPSHOT_VERSION = 1

#: Stream channels.  At equal timestamps job items precede event items
#: (the scheduler appends the accounting row before emitting
#: ``sched.job_end``); node items close the stream.  ``docs/STREAMING.md``
#: has the full ordering contract.
CHANNEL_JOB = "job"
CHANNEL_EVENT = "event"
CHANNEL_NODE = "node"
CHANNELS = (CHANNEL_JOB, CHANNEL_EVENT, CHANNEL_NODE)


@dataclass(frozen=True)
class LiveConfig:
    """Static facts a live session needs up front.

    ``span_seconds`` and fleet sizes are known before the first item in
    both modes (a campaign config declares them; a trace header carries
    them); the rolling window defaults to Fig. 5's
    ``default_window_days`` (30 days scaled by span/330).
    """

    cluster_name: str
    n_nodes: int
    n_gpus: int
    span_seconds: float
    window_days: Optional[float] = None
    step_days: float = 1.0
    rf_min_gpus: Optional[int] = None
    use_ground_truth: bool = True
    ettr_min_total_runtime: float = 24 * HOUR
    #: Fig. 9 cohort priority filter; defaults to QosTier.HIGH (3) to
    #: match ``analysis.ettr_comparison``.  ``None`` admits every tier.
    ettr_qos: Optional[int] = 3
    ettr_min_runs_per_bucket: int = 2

    def resolved_window_days(self) -> float:
        if self.window_days is not None:
            return self.window_days
        return default_window_days(self.span_seconds)

    @classmethod
    def for_trace(cls, trace, **overrides) -> "LiveConfig":
        return cls(
            cluster_name=trace.cluster_name,
            n_nodes=trace.n_nodes,
            n_gpus=trace.n_gpus,
            span_seconds=trace.span_seconds,
            **overrides,
        )

    @classmethod
    def for_config(cls, config, **overrides) -> "LiveConfig":
        """The session for a campaign that has not run yet."""
        spec = config.cluster_spec
        return cls(
            cluster_name=spec.name,
            n_nodes=spec.n_nodes,
            n_gpus=spec.n_gpus,
            span_seconds=config.duration_days * DAY,
            **overrides,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cluster_name": self.cluster_name,
            "n_nodes": self.n_nodes,
            "n_gpus": self.n_gpus,
            "span_seconds": self.span_seconds,
            "window_days": self.window_days,
            "step_days": self.step_days,
            "rf_min_gpus": self.rf_min_gpus,
            "use_ground_truth": self.use_ground_truth,
            "ettr_min_total_runtime": self.ettr_min_total_runtime,
            "ettr_qos": self.ettr_qos,
            "ettr_min_runs_per_bucket": self.ettr_min_runs_per_bucket,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "LiveConfig":
        return cls(**payload)


class LiveAnalytics:
    """All online estimators behind one ingest point."""

    def __init__(self, config: LiveConfig, telemetry=None):
        self.config = config
        self.telemetry = telemetry
        #: Bumped by every ``ingest`` (accepted or rejected) and every
        #: ``finish``: readers that memoize a derived view compare it to
        #: know the view is still current.  Not part of the snapshot.
        self.version = 0
        self.watermark = 0.0
        self.finished = False
        self.counts: Dict[str, int] = dict.fromkeys(CHANNELS, 0)
        self.rolling = RollingFailureRateEstimator(
            window=config.resolved_window_days() * DAY,
            step=config.step_days * DAY,
            exposure_per_time=config.n_nodes / DAY / 1000.0,
        )
        self.mttf = OnlineMTTFEstimator(
            use_ground_truth=config.use_ground_truth,
            rf_min_gpus=config.rf_min_gpus,
        )
        self.ettr = ETTRForecaster(
            min_total_runtime=config.ettr_min_total_runtime,
            qos=config.ettr_qos,
            min_runs_per_bucket=config.ettr_min_runs_per_bucket,
        )
        self.lemons = LiveLemonEstimator()
        self.fleet = FleetGauges(n_nodes=config.n_nodes, n_gpus=config.n_gpus)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, time: float, channel: str, payload: Any) -> None:
        """Consume one stream item: a record on ``channel`` at ``time``.

        A malformed item raises ``ValueError`` before it touches any
        estimator or the watermark: the stream comes from an in-process
        tap or a trace ``Trace.load`` validated, so a bad item is a
        programming error.
        """
        self.version += 1
        if channel not in self.counts:
            raise ValueError(f"unknown stream channel {channel!r}")
        if payload is None or not isinstance(time, (int, float)):
            raise ValueError(f"malformed stream item on channel {channel!r}")
        self.counts[channel] += 1
        if time > self.watermark:
            self.watermark = time
            self.rolling.advance(self.watermark)
        if channel == CHANNEL_JOB:
            record = payload
            self.mttf.observe_job(record)
            self.ettr.observe_job(record)
            self.lemons.observe_job(record)
            self.fleet.observe_job(record)
        elif channel == CHANNEL_EVENT:
            event = payload
            self.rolling.observe_event(event)
            self.lemons.observe_event(event)
            self.fleet.observe_event(event)
        else:
            self.lemons.observe_node(payload)
        self._publish_metrics(channel)

    def finish(self, end: Optional[float] = None) -> None:
        """Close the stream: flush the rolling grid to the span end."""
        self.version += 1
        if end is None:
            end = self.config.span_seconds
        self.watermark = max(self.watermark, float(end))
        self.rolling.finish(float(end))
        self.finished = True
        self._publish_metrics(None)

    # ------------------------------------------------------------------
    # telemetry (obs.metrics)
    # ------------------------------------------------------------------
    def _publish_metrics(self, channel: Optional[str]) -> None:
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        metrics = telemetry.metrics
        if channel is not None:
            metrics.counter("live_items_total", channel=channel).inc()
        metrics.gauge("live_watermark_days").set(self.watermark / DAY)
        metrics.gauge("live_nodes_down").set(self.fleet.nodes_down)
        metrics.gauge("live_nodes_quarantined").set(
            self.fleet.nodes_quarantined
        )
        metrics.gauge("live_utilization").set(
            self.fleet.utilization(self.watermark)
        )
        metrics.gauge("live_incident_rate_per_1k_node_days").set(
            self.rolling.current_rate()
        )
        if channel is None:
            # Published at finish() only: scoring walks every estimator,
            # which is too heavy for the per-item path.
            metrics.gauge("live_health_score").set(self.health().score)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe checkpoint of the full session state."""
        return {
            "schema": LIVE_SNAPSHOT_VERSION,
            "config": self.config.to_dict(),
            "watermark": self.watermark,
            "finished": self.finished,
            "counts": dict(self.counts),
            "estimators": {
                "rolling": self.rolling.state_dict(),
                "mttf": self.mttf.state_dict(),
                "ettr": self.ettr.state_dict(),
                "lemons": self.lemons.state_dict(),
                "fleet": self.fleet.state_dict(),
            },
        }

    @classmethod
    def from_snapshot(cls, payload: Dict[str, Any]) -> "LiveAnalytics":
        """Restore a :meth:`snapshot` document, without telemetry (a
        caller attaches its own as ``.telemetry``).

        Any malformed document (another schema, a missing field, a value
        of the wrong type) raises ``ValueError``.  Keys this version no
        longer writes (``malformed``, the estimators' fixed settings) are
        ignored, so older documents of the same schema still restore.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"snapshot must be a JSON object, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != LIVE_SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot schema {schema!r} does not match "
                f"LIVE_SNAPSHOT_VERSION={LIVE_SNAPSHOT_VERSION}"
            )
        try:
            return cls._restore(payload)
        except (AttributeError, KeyError, TypeError) as err:
            raise ValueError(f"malformed snapshot: {err!r}") from err

    @classmethod
    def _restore(cls, payload: Dict[str, Any]) -> "LiveAnalytics":
        analytics = cls(LiveConfig.from_dict(payload["config"]))
        analytics.watermark = float(payload["watermark"])
        analytics.finished = bool(payload["finished"])
        analytics.counts = {k: int(v) for k, v in payload["counts"].items()}
        est = payload["estimators"]
        analytics.rolling = RollingFailureRateEstimator.from_state(
            est["rolling"]
        )
        analytics.mttf = OnlineMTTFEstimator.from_state(est["mttf"])
        analytics.ettr = ETTRForecaster.from_state(est["ettr"])
        analytics.lemons = LiveLemonEstimator.from_state(est["lemons"])
        analytics.fleet = FleetGauges.from_state(est["fleet"])
        return analytics

    def save_snapshot(self, path: Union[str, Path]) -> Path:
        """Write the snapshot atomically (tmp + rename).

        A reader — or a process killed mid-write — can only ever observe
        the previous complete document or the new complete document,
        never a torn prefix.  This is the property the serve layer's
        shutdown path relies on.
        """
        import os
        import tempfile

        path = Path(path)
        payload = json.dumps(self.snapshot()) + "\n"
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent) or ".", prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load_snapshot(cls, path: Union[str, Path]) -> "LiveAnalytics":
        """Read a :meth:`save_snapshot` file; ``ValueError`` if malformed."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_snapshot(payload)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def timeline(self) -> FailureRateTimeline:
        """The streaming Fig. 5 object (the batch figure's type)."""
        return FailureRateTimeline.from_estimator(
            self.config.cluster_name,
            self.rolling,
            self.config.resolved_window_days(),
        )

    def health(self) -> HealthReport:
        """Score the fleet's current health (PVC ``getClusterHealth``).

        Folds every live estimator into a :class:`HealthSignals` bundle
        and runs it through the default :class:`FleetHealthScorer`.
        """
        return FleetHealthScorer().score(HealthSignals.from_analytics(self))

    def report(self) -> "LiveReport":
        return LiveReport(self)


class LiveReport:
    """Point-in-time rendering of a live session's estimator state."""

    def __init__(self, analytics: LiveAnalytics):
        self.analytics = analytics

    def rows(self):
        a = self.analytics
        day = a.watermark / DAY
        rows = [
            ("watermark", f"day {day:.2f}"),
            (
                "items ingested",
                f"{a.counts['job']} jobs, {a.counts['event']} events, "
                f"{a.counts['node']} nodes",
            ),
            (
                "incident rate",
                f"{a.rolling.current_rate():.2f} /1k node-days "
                f"({a.rolling.window_days:.1f}d window)",
            ),
            ("availability", f"{a.fleet.availability():.1%}"),
            ("utilization", f"{a.fleet.utilization(a.watermark):.1%}"),
            ("hw interruptions", str(a.fleet.hw_interruptions)),
        ]
        try:
            rf = a.mttf.failure_rate()
            rows.append(
                (
                    "r_f",
                    f"{rf.rate * 1000:.2f} /1k node-days "
                    f"(>{a.mttf.rf_floor_gpus} GPUs)",
                )
            )
        except ValueError:
            rows.append(("r_f", "n/a (no large-job runtime yet)"))
        buckets = a.mttf.buckets()
        if buckets:
            largest = buckets[-1]
            rows.append(
                (
                    f"MTTF @ {largest.gpus} GPUs",
                    f"{largest.mttf_hours:.1f} h "
                    f"({largest.failures} failures / "
                    f"{largest.runtime_hours:.0f} h)",
                )
            )
        suspects = a.lemons.suspects()
        rows.append(
            (
                "lemon suspects",
                ", ".join(str(n) for n in suspects) if suspects else "none",
            )
        )
        health = a.health()
        rows.append(
            (
                "fleet health",
                f"{health.score:.0f}/100"
                + ("" if health.healthy else f" ({len(health.messages)} conditions)"),
            )
        )
        return rows

    def render(self) -> str:
        a = self.analytics
        return render_table(
            ["signal", "value"],
            self.rows(),
            title=(
                f"live reliability state ({a.config.cluster_name}, "
                f"day {a.watermark / DAY:.1f})"
            ),
        )
