"""Fig. 5: failure-rate evolution over the campaign.

A trailing-window rate of detected infrastructure incidents, in failures
per 1000 node-days, overall and per failure mode, with vertical markers at
health-check introduction dates.  The paper's 30-day window scales down
with campaign length so shorter benchmark campaigns still resolve the
episodic regimes (driver bug, mount wave, IB-link spike).
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.report import render_series
from repro.core.estimators import RollingFailureRateEstimator
from repro.sim.timeunits import DAY
from repro.workload.trace import Trace


@dataclass(frozen=True)
class FailureRateTimeline:
    """Rolling failure-rate series (per 1000 node-days)."""

    cluster_name: str
    times_days: np.ndarray
    overall: np.ndarray
    by_component: Dict[str, np.ndarray]
    check_introductions: Dict[str, float]  # check name -> day introduced
    window_days: float

    @classmethod
    def from_estimator(
        cls,
        cluster_name: str,
        estimator: RollingFailureRateEstimator,
        window_days: float,
    ) -> "FailureRateTimeline":
        """The series finalized so far by ``estimator``, whose window the
        caller chose as ``window_days`` (passed as is, not converted back
        from seconds)."""
        return cls(
            cluster_name=cluster_name,
            times_days=estimator.times_days(),
            overall=estimator.overall_series(),
            by_component=estimator.component_series(),
            check_introductions=estimator.check_introductions(),
            window_days=window_days,
        )

    def render(self) -> str:
        marks = ", ".join(
            f"{name}@day{day:.0f}" for name, day in self.check_introductions.items()
        )
        return (
            render_series(
                self.times_days,
                self.overall,
                x_label="day",
                y_label="failures/1k node-days (all)",
                title=f"Fig. 5 — failure rate evolution ({self.cluster_name})",
            )
            + (f"\ncheck introductions: {marks}" if marks else "")
        )


def default_window_days(span_seconds: float) -> float:
    """Fig. 5's window: the paper's 30 days on an 11-month span, scaled
    proportionally to the campaign span (at least one day)."""
    return max(1.0, span_seconds / DAY * (30.0 / 330.0))


def failure_rate_timeline(trace: Trace) -> FailureRateTimeline:
    """Compute Fig. 5 by folding the trace's events.

    Failure events are ``cluster.incident`` records — the deduplicated,
    detection-level view (one event per incident regardless of how many
    overlapping checks fired); check introductions are the first
    ``health.check_failed`` firings in stream order.
    """
    window_days = default_window_days(trace.span_seconds)
    estimator = RollingFailureRateEstimator(
        window=window_days * DAY,
        step=DAY,
        exposure_per_time=trace.n_nodes / DAY / 1000.0,
    )
    for event in trace.events:
        estimator.observe_event(event)
    estimator.finish(trace.span_seconds)
    return FailureRateTimeline.from_estimator(
        trace.cluster_name, estimator, window_days
    )
