"""Export analysis results as plain tabular data (CSV / row dicts).

The ASCII renderers are for eyeballs; downstream users plotting the
figures want the underlying series.  Each ``*_rows`` function turns one
analysis result into ``(headers, rows)`` suitable for
:func:`write_csv` or a dataframe constructor.
"""

import csv
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.analysis.ettr_analysis import ETTRComparison
from repro.analysis.goodput_loss import GoodputLossAnalysis
from repro.analysis.job_sizes import JobSizeDistribution
from repro.analysis.job_status import JobStatusBreakdown
from repro.analysis.mttf_analysis import MTTFAnalysis
from repro.analysis.rolling_failures import FailureRateTimeline

Rows = Tuple[List[str], List[List[object]]]


def write_csv(path, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Write one table as CSV (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))


def job_status_rows(result: JobStatusBreakdown) -> Rows:
    headers = ["state", "job_fraction", "gpu_time_fraction"]
    rows = []
    for state, frac in sorted(
        result.job_fraction.items(), key=lambda kv: -kv[1]
    ):
        rows.append(
            [state.value, frac, result.gpu_time_fraction.get(state, 0.0)]
        )
    return headers, rows


def job_sizes_rows(result: JobSizeDistribution) -> Rows:
    headers = ["gpus", "job_fraction", "compute_fraction"]
    if result.profile_job_fraction is not None:
        headers += ["model_job_fraction", "model_compute_fraction"]
    rows = []
    sizes = sorted(set(result.job_fraction) | set(result.compute_fraction))
    for size in sizes:
        row = [
            size,
            result.job_fraction.get(size, 0.0),
            result.compute_fraction.get(size, 0.0),
        ]
        if result.profile_job_fraction is not None:
            row += [
                result.profile_job_fraction.get(size, 0.0),
                result.profile_compute_fraction.get(size, 0.0),
            ]
        rows.append(row)
    return headers, rows


def mttf_rows(result: MTTFAnalysis) -> Rows:
    headers = [
        "gpus",
        "attempts",
        "failures",
        "runtime_hours",
        "mttf_hours",
        "mttf_lo",
        "mttf_hi",
        "theory_hours",
    ]
    rows = []
    for bucket in result.buckets:
        rows.append(
            [
                bucket.gpus,
                bucket.n_records,
                bucket.failures,
                bucket.runtime_hours,
                bucket.mttf_hours,
                bucket.mttf_hours_lo,
                bucket.mttf_hours_hi,
                result.projection.get(bucket.gpus, float("nan")),
            ]
        )
    return headers, rows


def goodput_rows(result: GoodputLossAnalysis) -> Rows:
    headers = [
        "gpus",
        "direct_gpu_hours",
        "second_order_gpu_hours",
        "n_direct",
        "n_second_order",
    ]
    rows = [
        [
            loss.gpus,
            loss.direct_gpu_hours,
            loss.second_order_gpu_hours,
            loss.n_direct,
            loss.n_second_order,
        ]
        for loss in result.losses
    ]
    return headers, rows


def ettr_rows(result: ETTRComparison) -> Rows:
    headers = [
        "gpus",
        "n_runs",
        "measured_mean",
        "measured_lo",
        "measured_hi",
        "expected",
        "mean_queue_seconds",
    ]
    rows = [
        [
            b.gpus,
            b.n_runs,
            b.measured_mean,
            b.measured_lo,
            b.measured_hi,
            b.expected,
            b.mean_queue_seconds,
        ]
        for b in result.buckets
    ]
    return headers, rows


def failure_rate_rows(result) -> Rows:
    """Fig. 4's component rates (takes a FailureRateTable)."""
    headers = ["component", "failures_per_million_gpu_hours"]
    rows = [[component, rate] for component, rate in result.rates.items()]
    return headers, rows


def timeline_rows(result: FailureRateTimeline) -> Rows:
    headers = ["day", "overall"] + sorted(result.by_component)
    rows = []
    for i, day in enumerate(result.times_days):
        row = [float(day), float(result.overall[i])]
        for component in sorted(result.by_component):
            row.append(float(result.by_component[component][i]))
        rows.append(row)
    return headers, rows


def export_all(trace, out_dir) -> Dict[str, Path]:
    """Export every figure's data for one trace; returns written paths."""
    from repro.analysis import (
        ettr_comparison,
        failure_rate_timeline,
        goodput_loss_analysis,
        job_size_distribution,
        job_status_breakdown,
        mttf_analysis,
    )
    from repro.sim.timeunits import HOUR

    out_dir = Path(out_dir)
    written: Dict[str, Path] = {}

    def emit(name: str, headers, rows) -> None:
        path = out_dir / f"{name}.csv"
        write_csv(path, headers, rows)
        written[name] = path

    from repro.analysis import attributed_failure_rates

    emit("fig3_job_status", *job_status_rows(job_status_breakdown(trace)))
    emit(
        "fig4_failure_rates",
        *failure_rate_rows(attributed_failure_rates(trace)),
    )
    emit(
        "fig6_job_sizes",
        *job_sizes_rows(job_size_distribution(trace)),
    )
    emit("fig7_mttf", *mttf_rows(mttf_analysis(trace)))
    emit("fig8_goodput", *goodput_rows(goodput_loss_analysis(trace)))
    emit("fig5_timeline", *timeline_rows(failure_rate_timeline(trace)))
    try:
        emit(
            "fig9_ettr",
            *ettr_rows(
                ettr_comparison(
                    trace,
                    min_total_runtime=12 * HOUR,
                    qos=None,
                    min_runs_per_bucket=2,
                )
            ),
        )
    except ValueError:
        pass  # cohort empty on tiny traces; other figures still export
    return written
