"""Fig. 7: MTTF by job size with Gamma CIs and the 1/N projection.

Combines the empirical per-bucket MTTF (hours, 90% CI), the theoretical
curve MTTF = 1/(N_nodes * r_f) with r_f estimated from >128-GPU jobs, and
the paper's extrapolations to 16,384 and 131,072 GPUs.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import render_table
from repro.core.mttf import (
    MTTFBucket,
    empirical_mttf_by_size,
    mttf_projection_curve,
    node_failure_rate,
    project_mttf,
)
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


def mttf_analysis(
    trace: Trace,
    min_gpus_for_rate: int = 128,
    use_ground_truth: bool = True,
    projection_sizes: Sequence[int] = PROJECTION_SIZES,
) -> MTTFAnalysis:
    """Compute Fig. 7 from the trace's job columns.

    For scaled-down campaigns whose largest jobs do not reach 128 GPUs,
    ``min_gpus_for_rate`` falls back to half the largest observed size.
    """
    if not trace.job_records:
        raise ValueError("trace has no job records")
    columns = trace.columns.jobs
    largest = int(columns.n_gpus.max())
    floor = min_gpus_for_rate
    if largest <= floor:
        floor = max(8, largest // 2)
    rate = node_failure_rate(
        columns, min_gpus=floor, use_ground_truth=use_ground_truth
    )
    buckets = empirical_mttf_by_size(columns, use_ground_truth=use_ground_truth)
    projection = mttf_projection_curve(list(projection_sizes), rate.rate)
    return MTTFAnalysis(
        cluster_name=trace.cluster_name,
        buckets=buckets,
        failure_rate=rate,
        projection=projection,
    )
