"""The paper's headline scalar observations, computed from one trace.

Covers Observation 4 (HW failures: <1% of jobs, ~19% of GPU runtime),
Observation 7 (>90% of jobs at most one server, <10% of GPU time), the
cluster utilization claims (83-85%), and the r_f estimates (6.50 / 2.34
failures per 1000 node-days).
"""

from dataclasses import dataclass

from repro.analysis.job_sizes import job_size_distribution
from repro.analysis.job_status import job_status_breakdown
from repro.analysis.report import render_table
from repro.core.mttf import node_failure_rate
from repro.workload.trace import Trace


@dataclass(frozen=True)
class HeadlineNumbers:
    """One row per headline claim: name, paper value, measured value."""

    cluster_name: str
    utilization: float
    hw_job_fraction: float
    hw_gpu_time_fraction: float
    small_job_fraction: float
    small_job_gpu_time_fraction: float
    compute_256plus_fraction: float
    rf_per_1000_node_days: float

    def render(self) -> str:
        paper = {
            "RSC-1": {
                "utilization": "83%",
                "hw_jobs": "<1%",
                "hw_runtime": "~19%",
                "small_jobs": ">90%",
                "small_gpu_time": "<10%",
                "compute_256plus": "~66%",
                "rf": "6.50",
            },
            "RSC-2": {
                "utilization": "85%",
                "hw_jobs": "<1%",
                "hw_runtime": "(smaller)",
                "small_jobs": ">90%",
                "small_gpu_time": "<10%",
                "compute_256plus": "~52%",
                "rf": "2.34",
            },
        }.get(self.cluster_name, {})
        rows = [
            ("cluster utilization", paper.get("utilization", "-"), f"{self.utilization:.1%}"),
            ("jobs hit by HW failures", paper.get("hw_jobs", "-"), f"{self.hw_job_fraction:.2%}"),
            ("GPU runtime hit by HW failures", paper.get("hw_runtime", "-"), f"{self.hw_gpu_time_fraction:.1%}"),
            ("jobs <= 1 server", paper.get("small_jobs", "-"), f"{self.small_job_fraction:.1%}"),
            ("GPU time of <= 1 server jobs", paper.get("small_gpu_time", "-"), f"{self.small_job_gpu_time_fraction:.1%}"),
            ("compute from 256+ GPU jobs", paper.get("compute_256plus", "-"), f"{self.compute_256plus_fraction:.1%}"),
            ("r_f per 1000 node-days", paper.get("rf", "-"), f"{self.rf_per_1000_node_days:.2f}"),
        ]
        return render_table(
            ["observation", "paper", "measured"],
            rows,
            title=f"Headline numbers ({self.cluster_name})",
        )


def headline_numbers(
    trace: Trace,
    use_ground_truth: bool = True,
) -> HeadlineNumbers:
    """Compute the headline scalars from a trace."""
    status = job_status_breakdown(trace)
    sizes = job_size_distribution(trace)
    utilization = trace.total_gpu_seconds() / (trace.n_gpus * trace.span_seconds)
    columns = trace.columns.jobs
    largest = int(columns.n_gpus.max())
    rf = node_failure_rate(
        columns,
        min_gpus=min(128, max(8, largest // 2)),
        use_ground_truth=use_ground_truth,
    )
    small_gpu_time = sum(
        f for s, f in sizes.compute_fraction.items() if s <= 8
    )
    return HeadlineNumbers(
        cluster_name=trace.cluster_name,
        utilization=utilization,
        hw_job_fraction=status.hw_job_fraction,
        hw_gpu_time_fraction=status.hw_gpu_time_fraction,
        small_job_fraction=sizes.fraction_of_jobs_at_most(8),
        small_job_gpu_time_fraction=small_gpu_time,
        compute_256plus_fraction=sizes.fraction_of_compute_at_least(256),
        rf_per_1000_node_days=rf.rate * 1000.0,
    )
