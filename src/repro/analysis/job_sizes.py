"""Fig. 6: job-size distribution by job count and by compute.

Buckets raw GPU counts at powers of two (1, 2, 4, ..., 4096) and reports
both the fraction of jobs and the fraction of GPU time per bucket, for the
trace and (optionally) the generating profile's analytic expectation —
Observation 7's ">90% of jobs are at most one server but <10% of GPU
time; 256+-GPU jobs draw most of the compute".
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.report import render_table
from repro.workload.profiles import WorkloadProfile
from repro.workload.trace import Trace


@dataclass(frozen=True)
class JobSizeDistribution:
    """Per-size-bucket job and compute fractions."""

    cluster_name: str
    job_fraction: Dict[int, float]
    compute_fraction: Dict[int, float]
    profile_job_fraction: Optional[Dict[int, float]] = None
    profile_compute_fraction: Optional[Dict[int, float]] = None

    def fraction_of_jobs_at_most(self, gpus: int) -> float:
        return sum(f for s, f in self.job_fraction.items() if s <= gpus)

    def fraction_of_compute_at_least(self, gpus: int) -> float:
        return sum(f for s, f in self.compute_fraction.items() if s >= gpus)

    def render(self) -> str:
        sizes = sorted(set(self.job_fraction) | set(self.compute_fraction))
        rows = []
        for size in sizes:
            row = [
                size,
                f"{self.job_fraction.get(size, 0.0):.2%}",
                f"{self.compute_fraction.get(size, 0.0):.2%}",
            ]
            if self.profile_job_fraction is not None:
                row.append(f"{self.profile_job_fraction.get(size, 0.0):.2%}")
                row.append(f"{self.profile_compute_fraction.get(size, 0.0):.2%}")
            rows.append(row)
        headers = ["GPUs", "% jobs", "% compute"]
        if self.profile_job_fraction is not None:
            headers += ["% jobs (model)", "% compute (model)"]
        summary = (
            f"\n<=8 GPUs: {self.fraction_of_jobs_at_most(8):.1%} of jobs, "
            f"{1 - self.fraction_of_compute_at_least(16):.1%} of compute; "
            f"256+ GPUs: {self.fraction_of_compute_at_least(256):.1%} of compute"
        )
        return (
            render_table(
                headers, rows, title=f"Fig. 6 — job sizes ({self.cluster_name})"
            )
            + summary
        )


def job_size_distribution(
    trace: Trace,
    profile: Optional[WorkloadProfile] = None,
) -> JobSizeDistribution:
    """Compute Fig. 6 from a trace (deduplicating attempts to jobs).

    Job fractions count each *logical job* once (by job id); compute
    fractions sum GPU time over all attempts, which is what the cluster
    actually spent.  Both are array reductions over the job columns.
    """
    if not trace.job_records:
        raise ValueError("trace has no job records")
    job_hist, compute_hist = _size_histograms(trace)
    total_jobs = sum(job_hist.values())
    total_compute = sum(compute_hist.values())
    profile_jobs = profile_compute = None
    if profile is not None:
        profile_jobs = profile.expected_job_fraction_by_size()
        profile_compute = profile.expected_compute_fraction_by_size()
    return JobSizeDistribution(
        cluster_name=trace.cluster_name,
        job_fraction={s: v / total_jobs for s, v in job_hist.items()},
        compute_fraction={s: v / total_compute for s, v in compute_hist.items()},
        profile_job_fraction=profile_jobs,
        profile_compute_fraction=profile_compute,
    )


def _size_histograms(trace: Trace):
    """(job_hist, compute_hist) via array reductions, sorted-bucket keyed."""
    import numpy as np

    from repro.core.columns import next_power_of_two

    cols = trace.columns.jobs
    # First attempt per job id carries its size (np.unique's return_index
    # points at first occurrences).
    _, first_idx = np.unique(cols.job_id, return_index=True)
    job_buckets = next_power_of_two(cols.n_gpus[first_idx], minimum=1)
    uniq_j, counts_j = np.unique(job_buckets, return_counts=True)
    job_hist = {int(b): float(c) for b, c in zip(uniq_j, counts_j)}

    compute_buckets = next_power_of_two(cols.n_gpus, minimum=1)
    uniq_c, inverse = np.unique(compute_buckets, return_inverse=True)
    sums = np.bincount(inverse, weights=cols.gpu_seconds, minlength=len(uniq_c))
    compute_hist = {int(b): float(s) for b, s in zip(uniq_c, sums)}
    return job_hist, compute_hist
