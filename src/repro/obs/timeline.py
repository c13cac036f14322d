"""Incident timeline reconstruction: detection → response → repair.

"From Detection to Recovery" (arXiv 2605.09370) argues that on a real
fleet the operationally useful reliability metric is the *timeline* of
each incident — how long until the failure was detected, how long until
remediation started, how long the repair took — not point failure
counts.  This module rebuilds exactly those records from a simulated
:class:`~repro.workload.trace.Trace`, stitching together the event
vocabulary the cluster already emits:

* ``cluster.incident``            — the fault occurs (backdated time),
* ``health.check_failed`` /
  ``health.node_fail_heartbeat``  — the fault is detected,
* ``remediation.ticket_opened``   — the response begins,
* ``remediation.ticket_closed``   — the node returns to service,
* ``lemon.quarantined``           — proactive capacity removal,
* job records (``hw_incident_id``) — the blast radius.

Stage latencies telescope over clamped milestones
``m0 = occurred ≤ m1 = detected ≤ m2 = ticket opened ≤ m3 = closed``::

    detection = m1 - m0      (fault → first health-check/heartbeat hit)
    response  = m2 - m1      (detection → remediation ticket)
    repair    = m3 - m2      (ticket → return to service)

so for every resolved incident the three stages sum *exactly* to its
downtime ``m3 - m0`` (test-enforced).  Incidents that never reach a
ticket (drain resolved by the untracked-repair path) or whose ticket is
still open at trace end are reported as unresolved and excluded from
stage aggregates.

Reconstruction is pure reading: it never mutates the trace.  A ticket
joins its incident by the ``incident_id`` every remediation event
carries.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.spans import PhaseStat, phase_stats

#: Stage names, in timeline order.
STAGES = ("detection", "response", "repair")


@dataclass
class IncidentRecord:
    """One hardware incident's reconstructed lifecycle."""

    incident_id: int
    node_id: int
    component: str
    failure_class: str
    severity: int
    attributed: bool
    immediate: bool
    occurred_at: float
    detected_at: Optional[float] = None
    #: What detected it: ``"check:<name>"`` or ``"heartbeat"``.
    detected_via: Optional[str] = None
    ticket_id: Optional[int] = None
    ticket_opened_at: Optional[float] = None
    recovered_at: Optional[float] = None
    gpu_swapped: bool = False
    jobs_interrupted: int = 0
    jobs_requeued: int = 0

    @property
    def resolved(self) -> bool:
        return self.recovered_at is not None

    def milestones(self) -> Tuple[float, float, float, Optional[float]]:
        """Clamped ``(m0, m1, m2, m3)``; ``m3`` is None while open."""
        m0 = self.occurred_at
        m1 = max(m0, self.detected_at) if self.detected_at is not None else m0
        m2 = (
            max(m1, self.ticket_opened_at)
            if self.ticket_opened_at is not None
            else m1
        )
        m3 = (
            max(m2, self.recovered_at)
            if self.recovered_at is not None
            else None
        )
        return m0, m1, m2, m3

    @property
    def downtime_s(self) -> Optional[float]:
        """Occurrence to return-to-service; None while unresolved."""
        m0, _, _, m3 = self.milestones()
        return None if m3 is None else m3 - m0

    def stages(self) -> Optional[Dict[str, float]]:
        """Stage latencies; None while unresolved.  Sums to downtime."""
        m0, m1, m2, m3 = self.milestones()
        if m3 is None:
            return None
        return {
            "detection": m1 - m0,
            "response": m2 - m1,
            "repair": m3 - m2,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "incident_id": self.incident_id,
            "node_id": self.node_id,
            "component": self.component,
            "failure_class": self.failure_class,
            "severity": self.severity,
            "attributed": self.attributed,
            "immediate": self.immediate,
            "occurred_at": self.occurred_at,
            "detected_at": self.detected_at,
            "detected_via": self.detected_via,
            "ticket_id": self.ticket_id,
            "ticket_opened_at": self.ticket_opened_at,
            "recovered_at": self.recovered_at,
            "gpu_swapped": self.gpu_swapped,
            "jobs_interrupted": self.jobs_interrupted,
            "jobs_requeued": self.jobs_requeued,
            "downtime_s": self.downtime_s,
            "stages": self.stages(),
        }


@dataclass
class IncidentTimeline:
    """All reconstructed incidents of one trace, plus fleet context."""

    cluster_name: str
    span_seconds: float
    incidents: List[IncidentRecord] = field(default_factory=list)
    #: ``(time, node_id)`` lemon-quarantine events (proactive removals).
    quarantines: List[Tuple[float, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def resolved(self) -> List[IncidentRecord]:
        return [i for i in self.incidents if i.resolved]

    def open_incidents(self) -> List[IncidentRecord]:
        return [i for i in self.incidents if not i.resolved]

    def stage_stats(self) -> List[PhaseStat]:
        """p50/p95 per stage over resolved incidents, plus downtime."""
        durations: Dict[str, List[float]] = {s: [] for s in STAGES}
        durations["downtime"] = []
        for incident in self.resolved():
            stages = incident.stages()
            for stage in STAGES:
                durations[stage].append(stages[stage])
            durations["downtime"].append(incident.downtime_s)
        stats = phase_stats(durations)
        order = {name: i for i, name in enumerate(STAGES + ("downtime",))}
        stats.sort(key=lambda s: order.get(s.name, len(order)))
        return stats

    def total_downtime_s(self) -> float:
        return sum(i.downtime_s for i in self.resolved())

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "cluster_name": self.cluster_name,
            "span_seconds": self.span_seconds,
            "n_incidents": len(self.incidents),
            "n_resolved": len(self.resolved()),
            "n_open": len(self.open_incidents()),
            "total_downtime_s": self.total_downtime_s(),
            "quarantines": [
                {"time": t, "node_id": n} for t, n in self.quarantines
            ],
            "incidents": [i.to_dict() for i in self.incidents],
        }

    def write_json(self, path: Union[str, os.PathLike]) -> None:
        with open(os.fspath(path), "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def render(self, limit: int = 15) -> str:
        from repro.analysis.report import render_table

        resolved = self.resolved()
        header = (
            f"incident timeline — {self.cluster_name}: "
            f"{len(self.incidents)} incidents "
            f"({len(resolved)} resolved, "
            f"{len(self.open_incidents())} open, "
            f"{len(self.quarantines)} lemon quarantines)"
        )
        parts = [header]
        stats = self.stage_stats()
        if stats:
            rows = [
                (
                    s.name,
                    str(s.count),
                    _fmt_hours(s.p50_s),
                    _fmt_hours(s.p95_s),
                    _fmt_hours(s.max_s),
                )
                for s in stats
            ]
            parts.append(
                render_table(
                    ["stage", "n", "p50", "p95", "max"],
                    rows,
                    title="stage latencies (detection → recovery)",
                )
            )
        shown = self.incidents[:limit]
        if shown:
            rows = []
            for i in shown:
                stages = i.stages()
                rows.append(
                    (
                        str(i.incident_id),
                        str(i.node_id),
                        i.component,
                        "yes" if i.attributed else "hb-only",
                        _fmt_hours(stages["detection"]) if stages else "-",
                        _fmt_hours(stages["repair"]) if stages else "-",
                        _fmt_hours(i.downtime_s)
                        if i.downtime_s is not None
                        else "open",
                        str(i.jobs_interrupted),
                    )
                )
            title = f"incidents (first {len(shown)} of {len(self.incidents)})"
            parts.append(
                render_table(
                    [
                        "id",
                        "node",
                        "component",
                        "attributed",
                        "detect",
                        "repair",
                        "downtime",
                        "jobs",
                    ],
                    rows,
                    title=title,
                )
            )
        return "\n".join(parts)


def _fmt_hours(seconds: float) -> str:
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.1f}m"
    return f"{seconds:.0f}s"


def reconstruct_timeline(trace) -> IncidentTimeline:
    """Stitch a trace's events and job records into incident timelines."""
    timeline = IncidentTimeline(
        cluster_name=trace.cluster_name,
        span_seconds=trace.span_seconds,
    )
    by_id: Dict[int, IncidentRecord] = {}
    open_tickets: Dict[int, IncidentRecord] = {}  # ticket_id -> incident
    for event in trace.events:
        kind = event.kind
        data = event.data
        if kind == "cluster.incident":
            incident_id = int(data.get("incident_id", len(by_id)))
            record = IncidentRecord(
                incident_id=incident_id,
                node_id=int(data.get("node_id", -1)),
                component=str(data.get("component", "unknown")),
                failure_class=str(data.get("failure_class", "unknown")),
                severity=int(data.get("severity", 0)),
                attributed=bool(data.get("attributed", False)),
                immediate=bool(data.get("immediate", False)),
                occurred_at=event.time,
            )
            by_id[incident_id] = record
            timeline.incidents.append(record)
        elif kind in ("health.check_failed", "health.node_fail_heartbeat"):
            incident_id = data.get("incident_id", -1)
            record = by_id.get(int(incident_id) if incident_id is not None else -1)
            if record is None or bool(data.get("false_positive", False)):
                continue
            if record.detected_at is None or event.time < record.detected_at:
                record.detected_at = event.time
                record.detected_via = (
                    "heartbeat"
                    if kind == "health.node_fail_heartbeat"
                    else f"check:{data.get('check', 'unknown')}"
                )
        elif kind == "remediation.ticket_opened":
            incident_id = data.get("incident_id")
            if incident_id is None:
                continue
            record = by_id.get(int(incident_id))
            if record is None:
                continue
            record.ticket_opened_at = event.time
            ticket_id = data.get("ticket_id")
            if ticket_id is not None:
                record.ticket_id = int(ticket_id)
                open_tickets[int(ticket_id)] = record
        elif kind == "remediation.ticket_closed":
            ticket_id = data.get("ticket_id")
            record = (
                open_tickets.pop(int(ticket_id), None)
                if ticket_id is not None
                else None
            )
            if record is None:
                continue
            record.recovered_at = event.time
            record.gpu_swapped = bool(data.get("gpu_swapped", False))
        elif kind == "lemon.quarantined":
            node_id = data.get("node_id")
            if node_id is not None:
                timeline.quarantines.append((event.time, int(node_id)))
    for job in trace.job_records:
        incident_id = getattr(job, "hw_incident_id", None)
        if incident_id is None:
            continue
        record = by_id.get(int(incident_id))
        if record is None:
            continue
        record.jobs_interrupted += 1
        state = getattr(job, "state", None)
        if state is not None and getattr(state, "value", state) == "REQUEUED":
            record.jobs_requeued += 1
    timeline.incidents.sort(key=lambda i: (i.occurred_at, i.incident_id))
    return timeline


__all__ = [
    "IncidentRecord",
    "IncidentTimeline",
    "STAGES",
    "reconstruct_timeline",
]
