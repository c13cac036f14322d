"""Lemon-node detection (Section IV-A, Fig. 11, Table II).

Lemon nodes cause repeated job failures but evade one-shot health checks.
The paper's detector consumes seven per-node signals accumulated over a
multi-week window and applies manually tuned thresholds; flagged nodes are
quarantined and repaired.  Deployment removed 40 nodes (24 on RSC-1, 16 on
RSC-2, ~1.2%/1.7% of each fleet) at >85% accuracy and cut 512+-GPU job
failure rates from 14% to 4%.

We implement the same shape: per-signal thresholds — either fixed or set
from the fleet CDF at a percentile (the Fig. 11 methodology) — combined by
a minimum-signals vote.  The detector runs both offline (over a trace's
node records) and live (over scheduler node objects, for the mitigation
campaigns that reproduce the completion-rate improvement).
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.workload.trace import NodeTraceRecord

#: The paper's seven detection signals, by name.
LEMON_SIGNALS: Tuple[str, ...] = (
    "excl_jobid_count",
    "xid_cnt",
    "tickets",
    "out_count",
    "multi_node_node_fails",
    "single_node_node_fails",
    "single_node_node_failure_rate",
)

#: Signals the paper found most predictive; excl_jobid_count notably did
#: NOT correlate with node failures ("a large number of nodes were excluded
#: by at least one job"), so the default policy ignores it.
DEFAULT_SIGNAL_THRESHOLDS: Dict[str, float] = {
    "xid_cnt": 4,
    "tickets": 4,
    "out_count": 4,
    "multi_node_node_fails": 4,
    "single_node_node_fails": 2,
    "single_node_node_failure_rate": 0.02,
}


@dataclass(frozen=True)
class LemonPolicy:
    """Thresholded vote over the detection signals.

    A node is flagged when at least ``min_signals`` of its signals meet or
    exceed their thresholds.
    """

    thresholds: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_SIGNAL_THRESHOLDS)
    )
    min_signals: int = 2

    def __post_init__(self):
        unknown = set(self.thresholds) - set(LEMON_SIGNALS)
        if unknown:
            raise ValueError(f"unknown lemon signals: {sorted(unknown)}")
        if not self.thresholds:
            raise ValueError("policy needs at least one signal threshold")
        if not 1 <= self.min_signals <= len(self.thresholds):
            raise ValueError(
                f"min_signals must be in [1, {len(self.thresholds)}], "
                f"got {self.min_signals}"
            )

    @classmethod
    def from_cdf(
        cls,
        node_records: Sequence[NodeTraceRecord],
        percentile: float = 97.0,
    ) -> "LemonPolicy":
        """Set each threshold at a fleet-CDF percentile (Fig. 11's method).

        Most signals are highly sparse — the bulk of nodes sit at zero — so
        thresholds are additionally floored at 1 occurrence to avoid
        flagging the whole fleet when a percentile lands on zero.
        """
        if not node_records:
            raise ValueError("need node records to fit thresholds")
        if not 0 < percentile < 100:
            raise ValueError("percentile must be in (0, 100)")
        thresholds = {}
        for name in DEFAULT_SIGNAL_THRESHOLDS:
            values = np.asarray([rec.signal(name) for rec in node_records])
            cut = float(np.percentile(values, percentile))
            floor = 0.01 if name == "single_node_node_failure_rate" else 1.0
            thresholds[name] = max(cut, floor)
        return cls(thresholds=thresholds)

    def votes(self, signal_of) -> int:
        """Count thresholds met; ``signal_of(name) -> value``."""
        return sum(
            1 for name, cut in self.thresholds.items() if signal_of(name) >= cut
        )

    def is_lemon(self, signal_of) -> bool:
        return self.votes(signal_of) >= self.min_signals


@dataclass(frozen=True)
class LemonReport:
    """Detector evaluation against ground truth."""

    flagged_node_ids: Tuple[int, ...]
    true_lemon_ids: Tuple[int, ...]
    n_nodes: int

    @property
    def true_positives(self) -> int:
        return len(set(self.flagged_node_ids) & set(self.true_lemon_ids))

    @property
    def precision(self) -> float:
        """The paper's "accuracy of predicted lemon nodes" (>85%)."""
        flagged = len(self.flagged_node_ids)
        return 0.0 if flagged == 0 else self.true_positives / flagged

    @property
    def recall(self) -> float:
        truth = len(self.true_lemon_ids)
        return 0.0 if truth == 0 else self.true_positives / truth

    @property
    def flagged_fraction(self) -> float:
        return len(self.flagged_node_ids) / self.n_nodes


class LemonDetector:
    """Applies a :class:`LemonPolicy` to node records or live nodes."""

    def __init__(self, policy: Optional[LemonPolicy] = None):
        self.policy = policy if policy is not None else LemonPolicy()

    def detect(self, node_records: Sequence[NodeTraceRecord]) -> List[NodeTraceRecord]:
        """Offline: flag trace node records."""
        return [
            rec for rec in node_records if self.policy.is_lemon(rec.signal)
        ]

    def detect_live(self, nodes: Iterable) -> List:
        """Live: flag scheduler/cluster node objects by their counters."""
        flagged = []
        for node in nodes:
            counters = node.counters.as_dict()
            if self.policy.is_lemon(lambda name: counters[name]):
                flagged.append(node)
        return flagged

    def evaluate(self, node_records: Sequence[NodeTraceRecord]) -> LemonReport:
        """Compare flags against the trace's ground-truth lemons."""
        flagged = self.detect(node_records)
        return LemonReport(
            flagged_node_ids=tuple(sorted(rec.node_id for rec in flagged)),
            true_lemon_ids=tuple(
                sorted(rec.node_id for rec in node_records if rec.is_lemon_truth)
            ),
            n_nodes=len(node_records),
        )


def root_cause_table(
    node_records: Sequence[NodeTraceRecord],
) -> Dict[str, float]:
    """Table II: fraction of lemon root causes among the ground-truth
    lemons."""
    cohort = [r for r in node_records if r.lemon_component is not None]
    if not cohort:
        raise ValueError("no lemon nodes with known root causes in cohort")
    counts: Dict[str, int] = {}
    for rec in cohort:
        counts[rec.lemon_component] = counts.get(rec.lemon_component, 0) + 1
    total = sum(counts.values())
    return {
        comp: count / total
        for comp, count in sorted(counts.items(), key=lambda kv: -kv[1])
    }
