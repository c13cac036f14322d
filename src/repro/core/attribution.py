"""Failure attribution: joining job terminations to health-check events.

The paper's rule (Section III): "We attribute a failure to a cause if the
cause was detected within the last 10 minutes [of] a failing job's lifetime
(FAILED or NODE_FAIL) or 5 minutes after."  When multiple checks fire, the
most likely cause is chosen by severity and then by a component priority
list (mirroring "we report the most likely cause of failure according to
heuristics ... indicating whether a node should be isolated").

The attributor consumes only *observables* — attempt rows plus the health
event stream — never the simulator's ground truth, so it can be validated
against that ground truth in tests.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.jobtypes import JobAttemptRecord, JobState
from repro.sim.timeunits import MINUTE
from repro.workload.trace import Trace

#: Tie-break order for "most likely cause" among equal-severity checks;
#: earlier entries win.  Ordered roughly by how actionable/diagnostic the
#: paper treats each domain.
DEFAULT_COMPONENT_PRIORITY: Tuple[str, ...] = (
    "ib_link",
    "filesystem_mount",
    "gpu_memory",
    "pcie",
    "gpu",
    "nvlink",
    "host_memory",
    "eth_link",
    "nic",
    "system_services",
    "cpu",
    "psu",
    "bios",
    "eud",
    "optics",
)


@dataclass(frozen=True)
class AttributionPolicy:
    """The attribution window and candidate job states."""

    lookback: float = 10 * MINUTE
    lookahead: float = 5 * MINUTE
    candidate_states: Tuple[JobState, ...] = (
        JobState.FAILED,
        JobState.NODE_FAIL,
        JobState.REQUEUED,
    )
    component_priority: Tuple[str, ...] = DEFAULT_COMPONENT_PRIORITY

    def __post_init__(self):
        if self.lookback < 0 or self.lookahead < 0:
            raise ValueError("attribution window bounds must be non-negative")


@dataclass(frozen=True)
class AttributedFailure:
    """One job termination with its diagnosed cause (or lack thereof)."""

    record: JobAttemptRecord
    cause_component: Optional[str]
    checks: Tuple[str, ...]
    components_seen: Tuple[str, ...]
    attributed: bool

    @property
    def multi_attributed(self) -> bool:
        """Multiple distinct components implicated (co-occurrence)."""
        return len(set(self.components_seen)) > 1


class FailureAttributor:
    """Attributes job failures from a trace's health event stream.

    The ``health.check_failed`` events are indexed from the trace's
    :class:`~repro.core.columns.EventColumns` in one vectorized pass, and
    :meth:`attribute_all`, which every aggregate view re-enters, is
    memoized.  The most likely cause ranks by severity, then component
    priority, with ties going to the first candidate over windows
    concatenated in ``node_ids`` order (time order within a node).
    """

    def __init__(
        self,
        trace: Trace,
        policy: Optional[AttributionPolicy] = None,
    ):
        self.trace = trace
        self.policy = policy if policy is not None else AttributionPolicy()
        self._memo_all: Optional[List[AttributedFailure]] = None
        self._build_index()

    def _build_index(self) -> None:
        """Group health.check_failed events by node from the event columns.

        ``np.lexsort((time, node))`` is stable, so within a node events
        keep stream order for equal times.
        """
        ev = self.trace.columns.events
        idx = np.flatnonzero(
            ev.mask_for_kind("health.check_failed") & (ev.node_id >= 0)
        )
        nodes = ev.node_id[idx]
        times = ev.time[idx]
        order = np.lexsort((times, nodes))
        nodes = nodes[order]
        self._ev_times = times[order]
        self._ev_comp = ev.component_code[idx][order]
        self._ev_check = ev.check_code[idx][order]
        severity = ev.severity[idx][order].astype(np.int64)
        # data.get("severity", 0): an absent severity (-1 sentinel) ranks as 0.
        severity = np.where(severity < 0, 0, severity)
        # Per-event rank key packing (-severity, priority): lower is better,
        # and np.argmin returns the first minimum.
        priority = self.policy.component_priority
        pri_by_code = np.empty(len(ev.component_table) + 1, dtype=np.int64)
        pri_by_code[0] = len(priority)  # slot for code -1 (component absent)
        for code, name in enumerate(ev.component_table):
            try:
                pri_by_code[code + 1] = priority.index(name)
            except ValueError:
                pri_by_code[code + 1] = len(priority)
        self._rank_key = -severity * (len(priority) + 1) + pri_by_code[
            self._ev_comp + 1
        ]
        # node id -> contiguous [start, stop) range in the sorted arrays.
        self._node_ranges: Dict[int, Tuple[int, int]] = {}
        if len(nodes):
            starts = np.flatnonzero(np.diff(nodes)) + 1
            bounds = np.concatenate(([0], starts, [len(nodes)]))
            for i, node_id in enumerate(nodes[bounds[:-1]]):
                self._node_ranges[int(node_id)] = (
                    int(bounds[i]),
                    int(bounds[i + 1]),
                )
        self._component_table = ev.component_table
        self._check_table = ev.check_table

    # ------------------------------------------------------------------
    def _window_range(self, node_id: int, end_time: float) -> Tuple[int, int]:
        """Index range of a node's health events in a job end's window."""
        rng = self._node_ranges.get(node_id)
        if rng is None:
            return (0, 0)
        lo, hi = rng
        t = self._ev_times
        start = lo + int(
            np.searchsorted(t[lo:hi], end_time - self.policy.lookback, "left")
        )
        stop = lo + int(
            np.searchsorted(t[lo:hi], end_time + self.policy.lookahead, "right")
        )
        return (start, stop)

    def attribute_record(self, record: JobAttemptRecord) -> AttributedFailure:
        """Diagnose one failing attempt from observable health events."""
        segments = []
        for node_id in record.node_ids:
            start, stop = self._window_range(node_id, record.end_time)
            if stop > start:
                segments.append(np.arange(start, stop))
        if not segments:
            return AttributedFailure(
                record=record,
                cause_component=None,
                checks=(),
                components_seen=(),
                attributed=False,
            )
        # Candidates concatenate in node_ids order (then time order within a
        # node); argmin keeps the first of equally ranked candidates.
        window = segments[0] if len(segments) == 1 else np.concatenate(segments)
        best = int(window[np.argmin(self._rank_key[window])])
        best_comp = int(self._ev_comp[best])
        comp_table = self._component_table
        check_table = self._check_table
        return AttributedFailure(
            record=record,
            cause_component=None if best_comp < 0 else comp_table[best_comp],
            checks=tuple(
                sorted(
                    "?" if code < 0 else check_table[code]
                    for code in np.unique(self._ev_check[window])
                )
            ),
            components_seen=tuple(
                sorted(
                    "?" if code < 0 else comp_table[code]
                    for code in np.unique(self._ev_comp[window])
                )
            ),
            attributed=True,
        )

    def attribute_all(self) -> List[AttributedFailure]:
        """Attribute every candidate-state attempt in the trace.

        Memoized: the aggregate views below all re-enter here, and the
        attribution join is by far their dominant cost.
        """
        if self._memo_all is not None:
            return self._memo_all
        out = []
        candidates = self.policy.candidate_states
        for record in self.trace.job_records:
            if record.state in candidates:
                out.append(self.attribute_record(record))
        self._memo_all = out
        return out

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def failure_rate_by_component(
        self, per_gpu_hours: float = 1.0
    ) -> Dict[str, float]:
        """Fig. 4: attributed failures per GPU-hour, by component.

        The denominator is the trace's total scheduled GPU-hours; the
        ``unattributed_node_fail`` bucket counts NODE_FAIL terminations with
        no health event in the window (c.f. the paper's "NODE_FAIL without
        associated health checks").
        """
        total_gpu_hours = self.trace.total_gpu_seconds() / 3600.0
        if total_gpu_hours <= 0:
            raise ValueError("trace has no scheduled GPU time")
        counts: Dict[str, int] = {}
        for att in self.attribute_all():
            if att.attributed:
                key = att.cause_component or "unknown"
            elif att.record.state is JobState.NODE_FAIL:
                key = "unattributed_node_fail"
            else:
                continue  # plain user FAILED with no health event
            counts[key] = counts.get(key, 0) + 1
        return {
            comp: count / total_gpu_hours * per_gpu_hours
            for comp, count in sorted(counts.items(), key=lambda kv: -kv[1])
        }

    def check_co_occurrence_fraction(self, check_a: str, check_b: str) -> float:
        """Of attributed failures where ``check_a`` fired, the fraction
        where ``check_b`` fired in the same window — Observation 5's "43%
        of PCI errors co-occur with XID 79" style of number."""
        with_a = 0
        with_both = 0
        for att in self.attribute_all():
            if not att.attributed:
                continue
            checks = set(att.checks)
            if check_a in checks:
                with_a += 1
                if check_b in checks:
                    with_both += 1
        return 0.0 if with_a == 0 else with_both / with_a

    def co_occurrence_matrix(self) -> Dict[Tuple[str, str], float]:
        """Observation 5's full pairwise view.

        Entry ``(a, b)`` is the fraction of attributed failures where check
        ``a`` fired that also saw check ``b`` (rows don't sum to 1; the
        diagonal is 1 by construction).  Pairs with no ``a`` firings are
        omitted.
        """
        firings: Dict[str, int] = {}
        pair_counts: Dict[Tuple[str, str], int] = {}
        for att in self.attribute_all():
            if not att.attributed:
                continue
            checks = sorted(set(att.checks))
            for a in checks:
                firings[a] = firings.get(a, 0) + 1
                for b in checks:
                    pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
        return {
            (a, b): count / firings[a]
            for (a, b), count in sorted(pair_counts.items())
        }

    def hw_failure_records(self) -> List[JobAttemptRecord]:
        """Records counted as infrastructure failures by the paper's rule:
        NODE_FAIL, plus candidate-state records with an attributed check."""
        out = []
        for att in self.attribute_all():
            if att.record.state is JobState.NODE_FAIL or att.attributed:
                out.append(att.record)
        return out
