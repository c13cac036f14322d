"""repro.live — streaming reliability analytics over the event stream.

The online counterpart of ``repro.analysis``: a deterministic trace
replay, a tap on a running campaign, and a set of incrementally-updated
estimators (rolling failure rates, per-size MTTF, ETTR forecasts, lemon
scores, fleet gauges).  The estimators live in ``repro.core.estimators``:
the batch figures are folds of the same classes, so both paths share one
implementation.  See ``docs/STREAMING.md``.

Replay and tap both feed one entry point, ``LiveAnalytics.ingest(time,
channel, payload)``, one item at a time.  Two ways in:

* **Replay** a finished trace::

      from repro.live import LiveAnalytics, LiveConfig, replay_trace

      analytics = LiveAnalytics(LiveConfig.for_trace(trace))
      replay_trace(trace, analytics)
      print(analytics.report().render())

* **Tap** a running campaign::

      from repro.campaign import Campaign
      from repro.live import LiveAnalytics, LiveConfig, tap_campaign

      analytics = LiveAnalytics(LiveConfig.for_config(config))
      trace = tap_campaign(Campaign(config), analytics)

Sessions checkpoint with ``analytics.snapshot()`` /
``LiveAnalytics.from_snapshot`` (exact resume), and the ``repro live``
CLI subcommand wraps both modes.
"""

from repro.core.estimators import (
    ETTRForecaster,
    FleetGauges,
    LiveLemonEstimator,
    OnlineMTTFEstimator,
    RollingFailureRateEstimator,
)
from repro.live.analytics import (
    CHANNEL_EVENT,
    CHANNEL_JOB,
    CHANNEL_NODE,
    CHANNELS,
    LIVE_SNAPSHOT_VERSION,
    LiveAnalytics,
    LiveConfig,
    LiveReport,
)
from repro.live.replay import iter_trace_stream, replay_trace
from repro.live.tap import tap_campaign

__all__ = [
    "LIVE_SNAPSHOT_VERSION",
    "LiveAnalytics",
    "LiveConfig",
    "LiveReport",
    "CHANNELS",
    "CHANNEL_JOB",
    "CHANNEL_EVENT",
    "CHANNEL_NODE",
    "ETTRForecaster",
    "FleetGauges",
    "LiveLemonEstimator",
    "OnlineMTTFEstimator",
    "RollingFailureRateEstimator",
    "iter_trace_stream",
    "replay_trace",
    "tap_campaign",
]
