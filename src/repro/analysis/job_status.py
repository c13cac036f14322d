"""Fig. 3: scheduler job status breakdown by job count and GPU runtime.

Two views of the same records: the fraction of *jobs* ending in each state
and the fraction of *GPU runtime* those jobs held.  The (HW) annotation
marks infrastructure-attributed terminations — the paper's headline being
that they are ~0.2% of jobs but ~19% of GPU runtime.
"""

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.analysis.report import render_table
from repro.core.columns import JOB_STATES, sequential_sum
from repro.jobtypes import JobState
from repro.workload.trace import Trace


@dataclass(frozen=True)
class JobStatusBreakdown:
    """Fractions per state, plus the hardware-failure impact summary."""

    cluster_name: str
    n_records: int
    job_fraction: Dict[JobState, float]
    gpu_time_fraction: Dict[JobState, float]
    hw_job_fraction: float
    hw_gpu_time_fraction: float

    def render(self) -> str:
        rows = []
        for state in JobState:
            jf = self.job_fraction.get(state)
            if jf is None:
                continue
            rows.append(
                (
                    state.value,
                    f"{jf:.2%}",
                    f"{self.gpu_time_fraction.get(state, 0.0):.2%}",
                )
            )
        table = render_table(
            ["state", "% of jobs", "% of GPU runtime"],
            rows,
            title=f"Fig. 3 — job status breakdown ({self.cluster_name})",
        )
        footer = (
            f"\n(HW) infra failures: {self.hw_job_fraction:.2%} of jobs, "
            f"{self.hw_gpu_time_fraction:.2%} of GPU runtime"
        )
        return table + footer


def job_status_breakdown(trace: Trace) -> JobStatusBreakdown:
    """Compute Fig. 3 from a trace's attempt records.

    Per-state counts and GPU time are ``np.bincount`` reductions over the
    trace's typed job columns and include exactly the states that
    occurred.  GPU-time totals accumulate sequentially in record order.
    """
    if not trace.job_records:
        raise ValueError("trace has no job records")
    cols = trace.columns.jobs
    total_jobs = len(cols)
    gpu_seconds = cols.gpu_seconds
    total_gpu_seconds = sequential_sum(gpu_seconds)
    if total_gpu_seconds <= 0:
        raise ValueError("trace has no scheduled GPU time")
    n_states = len(JOB_STATES)
    counts = np.bincount(cols.state_code, minlength=n_states)
    time_sums = np.bincount(
        cols.state_code, weights=gpu_seconds, minlength=n_states
    )
    hw = cols.is_hw_interruption
    return JobStatusBreakdown(
        cluster_name=trace.cluster_name,
        n_records=total_jobs,
        job_fraction={
            JOB_STATES[code]: int(counts[code]) / total_jobs
            for code in range(n_states)
            if counts[code]
        },
        gpu_time_fraction={
            JOB_STATES[code]: float(time_sums[code]) / total_gpu_seconds
            for code in range(n_states)
            if counts[code]
        },
        hw_job_fraction=int(np.count_nonzero(hw)) / total_jobs,
        hw_gpu_time_fraction=sequential_sum(gpu_seconds[hw]) / total_gpu_seconds,
    )
