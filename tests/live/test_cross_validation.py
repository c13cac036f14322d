"""Acceptance: online estimators vs the batch ``analysis`` pipeline.

Tolerances are the ones documented in ``docs/STREAMING.md``:

* rolling failure-rate timeline: **bit-exact**;
* per-size MTTF buckets (counts, exposures, Gamma CIs): **bit-exact**;
* r_f: **bit-exact** with a pinned ``min_gpus``; within 1e-9 relative
  (empirically exact on in-repo traces) under the moving auto floor;
* ETTR Fig. 9: measured means/CIs/queue means **bit-exact**; the
  expected (Eq. 1) column inherits the r_f tolerance;
* lemon cohort: **exactly** the batch cohort once node records arrive;
* delivered GPU-seconds: **bit-exact** vs a sequential sum.
"""

import numpy as np
import pytest

from repro.analysis.ettr_analysis import ettr_comparison
from repro.analysis.lemon_analysis import lemon_analysis
from repro.analysis.rolling_failures import failure_rate_timeline
from repro.core.mttf import empirical_mttf_by_size, node_failure_rate
from repro.live import LiveAnalytics, LiveConfig, replay_trace


@pytest.fixture(scope="module")
def live(rsc1_trace):
    analytics = LiveAnalytics(LiveConfig.for_trace(rsc1_trace))
    replay_trace(rsc1_trace, analytics)
    return analytics


def test_no_late_events_slipped_past_finalized_points(live):
    assert live.rolling.late_events == 0


@pytest.mark.parametrize("reloaded", [False, True])
def test_rolling_timeline_bit_exact(live, rsc1_trace, reloaded, tmp_path):
    """The batch side reads the in-memory trace, or the same trace saved
    as JSONL and loaded back (its event columns rebuilt from the file)."""
    trace = rsc1_trace
    if reloaded:
        trace.save(tmp_path / "trace.jsonl")
        trace = type(rsc1_trace).load(tmp_path / "trace.jsonl")
    batch = failure_rate_timeline(
        trace,
        window_days=live.rolling.window_days,
        step_days=live.config.step_days,
    )
    streamed = live.timeline()
    assert np.array_equal(streamed.times_days, batch.times_days)
    assert np.array_equal(streamed.overall, batch.overall)
    assert sorted(streamed.by_component) == sorted(batch.by_component)
    for component, series in batch.by_component.items():
        assert np.array_equal(streamed.by_component[component], series)
    assert streamed.check_introductions == batch.check_introductions
    assert streamed.window_days == batch.window_days


def test_mttf_buckets_bit_exact(live, rsc1_trace):
    batch = empirical_mttf_by_size(
        rsc1_trace.columns.jobs, use_ground_truth=True
    )
    streamed = live.mttf.buckets()
    assert len(batch) == len(streamed)
    for b, s in zip(batch, streamed):
        assert b.gpus == s.gpus
        assert b.n_records == s.n_records
        assert b.failures == s.failures
        assert b.runtime_hours == s.runtime_hours  # bit-exact sum
        assert b.estimate == s.estimate  # Gamma CI from identical inputs


def test_rf_pinned_floor_bit_exact(rsc1_trace):
    floor = 128
    pinned = LiveAnalytics(
        LiveConfig.for_trace(rsc1_trace, rf_min_gpus=floor)
    )
    replay_trace(rsc1_trace, pinned)
    batch = node_failure_rate(
        rsc1_trace.columns.jobs, min_gpus=floor, use_ground_truth=True
    )
    failures, node_days = pinned.mttf.rf_inputs()
    assert failures == batch.events
    assert node_days == batch.exposure  # single sequential accumulator
    assert pinned.mttf.failure_rate() == batch


def test_rf_auto_floor_within_tolerance(live, rsc1_trace):
    floor = live.mttf.auto_floor()
    batch = node_failure_rate(
        rsc1_trace.columns.jobs, min_gpus=floor, use_ground_truth=True
    )
    failures, node_days = live.mttf.rf_inputs(floor)
    assert failures == batch.events  # counts are integral: always exact
    assert node_days == pytest.approx(batch.exposure, rel=1e-9)


def test_ettr_comparison_measured_bit_exact(live, rsc1_trace):
    batch = ettr_comparison(rsc1_trace, use_ground_truth=True)
    live_rf = live.mttf.failure_rate(live.mttf.ettr_floor())
    assert live_rf.rate == batch.rf_per_node_day
    rows = live.ettr.comparison(live_rf)
    assert len(rows) == len(batch.buckets)
    for bucket, row in zip(batch.buckets, rows):
        assert row["gpus"] == bucket.gpus
        assert row["n_runs"] == bucket.n_runs
        assert row["measured_mean"] == bucket.measured_mean
        assert row["measured_lo"] == bucket.measured_lo
        assert row["measured_hi"] == bucket.measured_hi
        assert row["mean_queue_seconds"] == bucket.mean_queue_seconds
        assert row["expected"] == pytest.approx(bucket.expected, rel=1e-9)


def test_lemon_cohort_exact(live, rsc1_trace):
    batch = lemon_analysis(rsc1_trace)
    streamed = live.lemons.report()
    assert streamed.flagged_node_ids == batch.report.flagged_node_ids
    assert streamed.true_lemon_ids == batch.report.true_lemon_ids
    assert streamed.n_nodes == batch.report.n_nodes


def test_gpu_seconds_bit_exact(live, rsc1_trace):
    total = 0.0
    for record in rsc1_trace.job_records:
        total += record.gpu_seconds
    assert live.fleet.gpu_seconds == total


def test_second_cluster_cross_validates_too(rsc2_trace):
    """The contracts are not seed luck: an RSC-2-like trace agrees too."""
    analytics = LiveAnalytics(LiveConfig.for_trace(rsc2_trace))
    replay_trace(rsc2_trace, analytics)
    assert analytics.rolling.late_events == 0
    batch = failure_rate_timeline(
        rsc2_trace,
        window_days=analytics.rolling.window_days,
        step_days=analytics.config.step_days,
    )
    streamed = analytics.timeline()
    assert np.array_equal(streamed.overall, batch.overall)
    batch_buckets = empirical_mttf_by_size(
        rsc2_trace.columns.jobs, use_ground_truth=True
    )
    assert [
        (b.gpus, b.failures, b.runtime_hours) for b in batch_buckets
    ] == [
        (s.gpus, s.failures, s.runtime_hours)
        for s in analytics.mttf.buckets()
    ]
