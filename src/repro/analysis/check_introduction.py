"""Quantify the check-introduction effect (Observation 6 / Fig. 5 note).

"The addition of a new health check ... has a tendency to cause an
apparent increase in failure rate simply because we suddenly are able to
see a failure mode that was likely previously present."  Before a check
exists, its failure mode still kills jobs — but the kills surface as
unattributed NODE_FAILs (heartbeat catch-all) instead of named causes.

This analysis splits the campaign at a check's introduction and compares,
per side: the *attributed* rate of the check's failure mode, and the
*unattributed* (heartbeat-only) incident rate.  The signature of the
effect: attribution of the mode jumps from ~zero while the combined
underlying rate stays comparable.
"""

from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import render_table
from repro.sim.timeunits import DAY
from repro.workload.trace import Trace


@dataclass(frozen=True)
class CheckIntroductionEffect:
    """Rates (per 1000 node-days) before vs after a check's introduction."""

    cluster_name: str
    check_name: str
    component: str
    introduced_day: float
    attributed_before: float
    attributed_after: float
    unattributed_before: float
    unattributed_after: float
    mode_incidents_before: float
    mode_incidents_after: float

    def render(self) -> str:
        rows = [
            (
                "attributed to the mode",
                f"{self.attributed_before:.2f}",
                f"{self.attributed_after:.2f}",
            ),
            (
                "unattributed (heartbeat only)",
                f"{self.unattributed_before:.2f}",
                f"{self.unattributed_after:.2f}",
            ),
            (
                "underlying mode incidents",
                f"{self.mode_incidents_before:.2f}",
                f"{self.mode_incidents_after:.2f}",
            ),
        ]
        return render_table(
            ["rate (/1k node-days)", "before check", "after check"],
            rows,
            title=(
                f"Observation 6 — introducing '{self.check_name}' on day "
                f"{self.introduced_day:.0f} ({self.cluster_name})"
            ),
        )


def check_introduction_effect(
    trace: Trace,
    check_name: str = "filesystem_mounts",
    component: Optional[str] = None,
) -> CheckIntroductionEffect:
    """Compute the before/after rates around a check's first firing.

    The introduction time is taken as the check's first firing (the
    observable proxy; campaigns place introductions at configured spans).
    """
    firings = [
        e
        for e in trace.events
        if e.kind == "health.check_failed" and e.data.get("check") == check_name
    ]
    introductions = trace.metadata.get("check_introductions", {})
    if check_name in introductions:
        introduced_at = float(introductions[check_name])
    elif firings:
        introduced_at = min(e.time for e in firings)  # observable proxy
    else:
        raise ValueError(
            f"check {check_name!r} never fired in this trace and no "
            "introduction time is recorded; cannot locate its introduction"
        )
    if component is None:
        if firings:
            component = firings[0].data.get("component", "?")
        else:
            component = "?"

    def rate(events, start, end):
        span_days = (end - start) / DAY
        if span_days <= 0:
            return 0.0
        node_kilodays = trace.n_nodes * span_days / 1000.0
        return len([e for e in events if start <= e.time < end]) / node_kilodays

    incidents = [e for e in trace.events if e.kind == "cluster.incident"]
    mode_incidents = [
        e for e in incidents if e.data.get("component") == component
    ]
    attributed_mode = [
        e
        for e in mode_incidents
        if e.data.get("attributed")
    ]
    unattributed = [e for e in incidents if not e.data.get("attributed")]

    t0, t1, t2 = 0.0, introduced_at, trace.span_seconds
    return CheckIntroductionEffect(
        cluster_name=trace.cluster_name,
        check_name=check_name,
        component=component,
        introduced_day=introduced_at / DAY,
        attributed_before=rate(attributed_mode, t0, t1),
        attributed_after=rate(attributed_mode, t1, t2),
        unattributed_before=rate(unattributed, t0, t1),
        unattributed_after=rate(unattributed, t1, t2),
        mode_incidents_before=rate(mode_incidents, t0, t1),
        mode_incidents_after=rate(mode_incidents, t1, t2),
    )
