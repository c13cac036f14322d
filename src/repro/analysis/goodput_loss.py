"""Fig. 8: lost cluster goodput from failures and preemption cascades."""

from dataclasses import dataclass
from typing import List

from repro.analysis.report import render_table
from repro.core.goodput import (
    CrashLoop,
    GoodputLoss,
    find_crash_loops,
    lost_goodput_by_size,
    second_order_fraction,
)
from repro.workload.trace import Trace


@dataclass(frozen=True)
class GoodputLossAnalysis:
    """Per-bucket losses, the second-order share, and crash loops."""

    cluster_name: str
    losses: List[GoodputLoss]
    second_order_share: float
    crash_loops: List[CrashLoop]
    total_gpu_hours_lost: float

    def render(self) -> str:
        rows = [
            (
                loss.gpus,
                f"{loss.direct_gpu_hours:.1f}",
                f"{loss.second_order_gpu_hours:.1f}",
                loss.n_direct,
                loss.n_second_order,
            )
            for loss in self.losses
        ]
        table = render_table(
            [
                "GPUs",
                "direct loss (GPU-h)",
                "2nd-order loss (GPU-h)",
                "# failures",
                "# cascaded preemptions",
            ],
            rows,
            title=f"Fig. 8 — lost goodput by job size ({self.cluster_name})",
        )
        loops = "; ".join(
            f"job {l.job_id} ({l.n_gpus} GPUs): {l.hw_interruptions} failures, "
            f"{l.preemptions_caused} preemptions ({l.gpus_preempted} GPUs)"
            for l in self.crash_loops[:3]
        )
        footer = (
            f"\ntotal lost: {self.total_gpu_hours_lost:.1f} GPU-h; "
            f"second-order share: {self.second_order_share:.1%}"
            + (f"\nworst crash loops: {loops}" if loops else "")
        )
        return table + footer


def goodput_loss_analysis(
    trace: Trace,
    min_loop_interruptions: int = 5,
) -> GoodputLossAnalysis:
    """Compute Fig. 8 from the trace's job columns."""
    columns = trace.columns.jobs
    losses = lost_goodput_by_size(columns)
    share = second_order_fraction(losses) if losses else 0.0
    return GoodputLossAnalysis(
        cluster_name=trace.cluster_name,
        losses=losses,
        second_order_share=share,
        crash_loops=find_crash_loops(
            columns, min_interruptions=min_loop_interruptions
        ),
        total_gpu_hours_lost=sum(l.total_gpu_hours for l in losses),
    )
