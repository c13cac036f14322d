"""Fig. 11 + Table II: lemon-node signal CDFs, detection, root causes."""

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.core.lemon import (
    LEMON_SIGNALS,
    LemonDetector,
    LemonPolicy,
    LemonReport,
    root_cause_table,
)
from repro.stats.quantiles import ecdf
from repro.workload.trace import Trace


@dataclass(frozen=True)
class LemonAnalysis:
    """Signal CDFs, the detector's report, and the root-cause table."""

    cluster_name: str
    signal_cdfs: Dict[str, Tuple[np.ndarray, np.ndarray]]
    report: LemonReport
    policy: LemonPolicy
    root_causes: Dict[str, float]
    lemon_signal_means: Dict[str, float]
    fleet_signal_means: Dict[str, float]

    def render(self) -> str:
        rows = []
        for name in LEMON_SIGNALS:
            rows.append(
                (
                    name,
                    f"{self.fleet_signal_means[name]:.3f}",
                    f"{self.lemon_signal_means[name]:.3f}",
                    f"{self.policy.thresholds.get(name, float('nan')):.3f}",
                )
            )
        table = render_table(
            ["signal", "fleet mean", "lemon mean", "threshold"],
            rows,
            title=f"Fig. 11 — lemon signals ({self.cluster_name})",
        )
        causes = render_table(
            ["component", "fraction"],
            [(c, f"{f:.1%}") for c, f in self.root_causes.items()],
            title="Table II — lemon root causes",
        )
        footer = (
            f"\nflagged {len(self.report.flagged_node_ids)} nodes "
            f"({self.report.flagged_fraction:.1%} of fleet), "
            f"precision={self.report.precision:.0%}, "
            f"recall={self.report.recall:.0%}"
        )
        return table + "\n\n" + causes + footer


def lemon_analysis(trace: Trace) -> LemonAnalysis:
    """Compute Fig. 11 / Table II from a trace's node records.

    Thresholds are fit from the fleet CDFs at the 99th percentile — the
    Fig. 11 methodology of reading thresholds off the signal
    distributions.
    """
    nodes = trace.node_records
    if not nodes:
        raise ValueError("trace has no node records")
    policy = LemonPolicy.from_cdf(nodes, percentile=99.0)
    detector = LemonDetector(policy)
    report = detector.evaluate(nodes)
    cdfs = {
        name: ecdf([rec.signal(name) for rec in nodes]) for name in LEMON_SIGNALS
    }
    lemons = [rec for rec in nodes if rec.is_lemon_truth]
    lemon_means = {
        name: (
            float(np.mean([rec.signal(name) for rec in lemons])) if lemons else 0.0
        )
        for name in LEMON_SIGNALS
    }
    fleet_means = {
        name: float(np.mean([rec.signal(name) for rec in nodes]))
        for name in LEMON_SIGNALS
    }
    try:
        causes = root_cause_table(nodes)
    except ValueError:
        causes = {}
    return LemonAnalysis(
        cluster_name=trace.cluster_name,
        signal_cdfs=cdfs,
        report=report,
        policy=policy,
        root_causes=causes,
        lemon_signal_means=lemon_means,
        fleet_signal_means=fleet_means,
    )
