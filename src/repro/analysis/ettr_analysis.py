"""Fig. 9: expected vs measured ETTR by job-run size.

For each size bucket: the mean measured job-run ETTR (with a 90% bootstrap
CI) of long, high-priority runs, against the analytic E[ETTR] computed
from aggregate statistics (cluster r_f, the bucket's mean queue wait, a
60-minute checkpoint interval, a 5-minute restart overhead) — Fig. 9's
methodology verbatim.
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.mttf_analysis import fold_mttf
from repro.analysis.report import render_table
from repro.core.estimators import ETTRForecaster
from repro.core.metrics import ETTRAssumptions
from repro.jobtypes import QosTier
from repro.sim.timeunits import HOUR
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
    min_total_runtime: float = 24 * HOUR,
    qos: Optional[QosTier] = QosTier.HIGH,
    min_runs_per_bucket: int = 2,
) -> ETTRComparison:
    """Compute Fig. 9 by folding the trace's job records through an
    :class:`ETTRForecaster`, with r_f from an MTTF fold pinned to Fig. 7's
    floor, ``core.mttf.rf_floor``."""
    assumptions = ETTRAssumptions()
    forecaster = ETTRForecaster(
        checkpoint_interval=assumptions.checkpoint_interval,
        restart_overhead=assumptions.restart_overhead,
        min_total_runtime=min_total_runtime,
        qos=None if qos is None else int(qos),
        min_runs_per_bucket=min_runs_per_bucket,
    )
    for record in trace.job_records:
        forecaster.observe_job(record)
    if not forecaster.cohort_runs:
        raise ValueError(
            "no job runs pass the Fig. 9 cohort filter; relax "
            "min_total_runtime or qos"
        )
    rf = fold_mttf(trace, use_ground_truth=True).failure_rate().rate
    return ETTRComparison(
        cluster_name=trace.cluster_name,
        buckets=[ETTRBucket(**row) for row in forecaster.comparison(rf)],
        rf_per_node_day=rf,
        assumptions=assumptions,
    )
