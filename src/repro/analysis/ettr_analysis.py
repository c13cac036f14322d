"""Fig. 9: expected vs measured ETTR by job-run size.

For each size bucket: the mean measured job-run ETTR (with a 90% bootstrap
CI) of long, high-priority runs, against the analytic E[ETTR] computed
from aggregate statistics (cluster r_f, the bucket's mean queue wait, a
60-minute checkpoint interval, a 5-minute restart overhead) — Fig. 9's
methodology verbatim.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.core.ettr import ETTRParameters, expected_ettr
from repro.core.metrics import ETTRAssumptions, job_run_ettr
from repro.core.mttf import node_failure_rate, size_bucket
from repro.jobtypes import QosTier
from repro.sim.timeunits import DAY, HOUR
from repro.stats.bootstrap import bootstrap_mean_ci
from repro.workload.jobruns import JobRun, filter_runs, group_job_runs
from repro.workload.trace import Trace


@dataclass(frozen=True)
class ETTRBucket:
    """One x-position of Fig. 9."""

    gpus: int
    n_runs: int
    measured_mean: float
    measured_lo: float
    measured_hi: float
    expected: float
    mean_queue_seconds: float


@dataclass(frozen=True)
class ETTRComparison:
    """Fig. 9's two series plus the inputs used to produce them."""

    cluster_name: str
    buckets: List[ETTRBucket]
    rf_per_node_day: float
    assumptions: ETTRAssumptions

    def bucket(self, gpus: int) -> ETTRBucket:
        for b in self.buckets:
            if b.gpus == gpus:
                return b
        raise KeyError(f"no ETTR bucket for {gpus} GPUs")

    def render(self) -> str:
        rows = [
            (
                b.gpus,
                b.n_runs,
                f"{b.measured_mean:.3f}",
                f"[{b.measured_lo:.3f}, {b.measured_hi:.3f}]",
                f"{b.expected:.3f}",
                f"{b.mean_queue_seconds / 60:.1f}m",
            )
            for b in self.buckets
        ]
        return render_table(
            ["GPUs", "runs", "measured ETTR", "90% CI", "E[ETTR]", "mean q"],
            rows,
            title=(
                f"Fig. 9 — expected vs measured job-run ETTR "
                f"({self.cluster_name}, dt_cp="
                f"{self.assumptions.checkpoint_interval / 60:.0f}m, u0="
                f"{self.assumptions.restart_overhead / 60:.0f}m)"
            ),
        )


def ettr_comparison(
    trace: Trace,
    assumptions: Optional[ETTRAssumptions] = None,
    min_total_runtime: float = 24 * HOUR,
    qos: Optional[QosTier] = QosTier.HIGH,
    min_runs_per_bucket: int = 2,
    use_ground_truth: bool = True,
) -> ETTRComparison:
    """Compute Fig. 9 from a trace.

    r_f is estimated over the trace's job columns; run grouping walks the
    records, since it builds :class:`JobRun` objects.
    """
    if assumptions is None:
        assumptions = ETTRAssumptions()
    runs = filter_runs(
        group_job_runs(trace.job_records),
        min_total_runtime=min_total_runtime,
        qos=qos,
    )
    if not runs:
        raise ValueError(
            "no job runs pass the Fig. 9 cohort filter; relax "
            "min_total_runtime or qos"
        )
    columns = trace.columns.jobs
    largest = int(columns.n_gpus.max())
    rf = node_failure_rate(
        columns,
        min_gpus=min(128, max(8, largest // 2)),
        use_ground_truth=use_ground_truth,
    ).rate

    by_bucket: Dict[int, List[JobRun]] = {}
    for run in runs:
        by_bucket.setdefault(size_bucket(run.n_gpus), []).append(run)

    buckets = []
    for gpus in sorted(by_bucket):
        cohort = by_bucket[gpus]
        if len(cohort) < min_runs_per_bucket:
            continue
        ettrs = [job_run_ettr(run, assumptions).ettr for run in cohort]
        mean, lo, hi = bootstrap_mean_ci(ettrs, confidence=0.90)
        queue_waits = [run.mean_requeue_wait() for run in cohort]
        initial_waits = [run.attempts[0].queue_wait for run in cohort]
        mean_q = float(np.mean(queue_waits + initial_waits))
        mean_runtime = float(np.mean([run.total_runtime for run in cohort]))
        params = ETTRParameters(
            n_nodes=max(1, gpus // 8),
            failure_rate_per_node_day=rf,
            checkpoint_interval=assumptions.checkpoint_interval,
            restart_overhead=assumptions.restart_overhead,
            queue_time=max(1.0, mean_q),
            productive_runtime=max(HOUR, mean_runtime),
        )
        try:
            expected = expected_ettr(params)
        except ValueError:
            expected = 0.0
        buckets.append(
            ETTRBucket(
                gpus=gpus,
                n_runs=len(cohort),
                measured_mean=mean,
                measured_lo=lo,
                measured_hi=hi,
                expected=expected,
                mean_queue_seconds=mean_q,
            )
        )
    return ETTRComparison(
        cluster_name=trace.cluster_name,
        buckets=buckets,
        rf_per_node_day=rf,
        assumptions=assumptions,
    )
