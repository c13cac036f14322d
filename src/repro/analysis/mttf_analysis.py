"""Fig. 7: MTTF by job size with Gamma CIs and the 1/N projection.

Combines the empirical per-bucket MTTF (hours, 90% CI), the theoretical
curve MTTF = 1/(N_nodes * r_f) with r_f estimated from >128-GPU jobs, and
the paper's extrapolations to 16,384 and 131,072 GPUs.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.core.estimators import OnlineMTTFEstimator
from repro.core.mttf import MTTFBucket, mttf_projection_curve, rf_floor
from repro.stats.fitting import RateEstimate
from repro.workload.trace import Trace

PROJECTION_SIZES: Tuple[int, ...] = (
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384, 131072
)


@dataclass(frozen=True)
class MTTFAnalysis:
    """Empirical buckets + theory line + extrapolations."""

    cluster_name: str
    buckets: List[MTTFBucket]
    failure_rate: RateEstimate  # r_f per node-day
    projection: Dict[int, float]  # gpus -> MTTF hours

    @property
    def rf_per_1000_node_days(self) -> float:
        return self.failure_rate.rate * 1000.0

    def bucket(self, gpus: int) -> MTTFBucket:
        for b in self.buckets:
            if b.gpus == gpus:
                return b
        raise KeyError(f"no MTTF bucket for {gpus} GPUs")

    def render(self) -> str:
        rows = []
        for b in self.buckets:
            rows.append(
                (
                    b.gpus,
                    b.n_records,
                    b.failures,
                    f"{b.mttf_hours:.1f}" if b.failures else "inf",
                    f"[{b.mttf_hours_lo:.1f}, "
                    + (f"{b.mttf_hours_hi:.1f}]" if b.failures else "inf]"),
                    f"{self.projection.get(b.gpus, float('nan')):.1f}",
                )
            )
        table = render_table(
            ["GPUs", "attempts", "failures", "MTTF (h)", "90% CI", "theory (h)"],
            rows,
            title=f"Fig. 7 — MTTF by job size ({self.cluster_name})",
        )
        extras = ", ".join(
            f"{g} GPUs -> {self.projection[g]:.2f} h"
            for g in (16384, 131072)
            if g in self.projection
        )
        footer = (
            f"\nr_f = {self.rf_per_1000_node_days:.2f} failures per 1000 "
            f"node-days; projections: {extras}"
        )
        return table + footer


def fold_mttf(trace: Trace, use_ground_truth: bool) -> OnlineMTTFEstimator:
    """An :class:`OnlineMTTFEstimator` folded over the trace's job records,
    with r_f pinned to ``core.mttf.rf_floor`` of the largest job — the
    one floor of Figs. 7 and 9 and the headline numbers."""
    largest = int(trace.columns.jobs.n_gpus.max())
    estimator = OnlineMTTFEstimator(
        use_ground_truth=use_ground_truth,
        rf_min_gpus=rf_floor(largest),
    )
    for record in trace.job_records:
        estimator.observe_job(record)
    return estimator


def mttf_analysis(trace: Trace) -> MTTFAnalysis:
    """Compute Fig. 7 by folding the trace's job records.

    r_f counts jobs above 128 GPUs; for scaled-down campaigns whose
    largest jobs do not reach it, the floor falls back to half the largest
    observed size (``core.mttf.rf_floor``).
    """
    if not trace.job_records:
        raise ValueError("trace has no job records")
    estimator = fold_mttf(trace, use_ground_truth=True)
    rate = estimator.failure_rate()
    return MTTFAnalysis(
        cluster_name=trace.cluster_name,
        buckets=estimator.buckets(),
        failure_rate=rate,
        projection=mttf_projection_curve(PROJECTION_SIZES, rate.rate),
    )
