import csv

import pytest

from repro.analysis import (
    failure_rate_timeline,
    goodput_loss_analysis,
    job_size_distribution,
    job_status_breakdown,
    mttf_analysis,
)
from repro.analysis.export import (
    export_all,
    goodput_rows,
    job_sizes_rows,
    job_status_rows,
    mttf_rows,
    timeline_rows,
    write_csv,
)
from repro.workload.profiles import rsc1_profile


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "nested" / "out.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], ["x", "y"]])
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1", "2.5"], ["x", "y"]]


def test_job_status_rows_fractions_sum(rsc1_trace):
    headers, rows = job_status_rows(job_status_breakdown(rsc1_trace))
    assert headers[0] == "state"
    assert sum(r[1] for r in rows) == pytest.approx(1.0)
    # Sorted most-frequent first.
    fracs = [r[1] for r in rows]
    assert fracs == sorted(fracs, reverse=True)


def test_job_sizes_rows_include_model_columns(rsc1_trace):
    result = job_size_distribution(rsc1_trace, rsc1_profile())
    headers, rows = job_sizes_rows(result)
    assert "model_compute_fraction" in headers
    assert all(len(r) == len(headers) for r in rows)


def test_mttf_rows_shape(rsc1_trace):
    headers, rows = mttf_rows(mttf_analysis(rsc1_trace))
    assert rows
    for row in rows:
        record = dict(zip(headers, row))
        assert record["mttf_lo"] <= record["mttf_hours"]


def test_goodput_rows(rsc1_trace):
    headers, rows = goodput_rows(goodput_loss_analysis(rsc1_trace))
    assert headers[0] == "gpus"
    assert all(row[1] >= 0 for row in rows)


def test_timeline_rows_component_columns(rsc1_trace):
    timeline = failure_rate_timeline(rsc1_trace)
    headers, rows = timeline_rows(timeline)
    assert headers[:2] == ["day", "overall"]
    assert len(rows) == len(timeline.times_days)
    assert all(len(r) == len(headers) for r in rows)


def test_export_all_writes_files(tmp_path, rsc1_trace):
    written = export_all(rsc1_trace, tmp_path / "figures")
    assert "fig3_job_status" in written
    assert "fig7_mttf" in written
    for path in written.values():
        assert path.exists()
        with path.open() as fh:
            assert len(list(csv.reader(fh))) >= 2  # header + data


def test_failure_rate_rows(rsc1_trace):
    from repro.analysis import attributed_failure_rates
    from repro.analysis.export import failure_rate_rows

    headers, rows = failure_rate_rows(attributed_failure_rates(rsc1_trace))
    assert headers == ["component", "failures_per_million_gpu_hours"]
    assert rows and all(row[1] > 0 for row in rows)


def test_export_all_includes_fig4(tmp_path, rsc1_trace):
    from repro.analysis.export import export_all

    written = export_all(rsc1_trace, tmp_path / "figs")
    assert "fig4_failure_rates" in written
