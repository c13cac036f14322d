"""Acceptance: live sessions vs the batch ``analysis`` figures.

The batch figures are folds of the same estimators a live session
drives (``repro.core.estimators``), so only the checks that still run
different code stay here (tolerances in ``docs/STREAMING.md``):

* the live ingest path — stream order, watermark ``advance`` and
  eviction — lets no backdated incident slip past a finalized grid
  point, and its Fig. 5 timeline is bit-exact against the batch fold
  of the in-memory trace and of the same trace reloaded from JSONL;
* r_f under the moving auto floor regroups the exposure sum by job size
  and agrees with the pinned batch fold within 1e-9 relative;
* the lemon cohort is **exactly** the batch cohort once node records
  arrive through the stream;
* delivered GPU-seconds are **bit-exact** against
  ``Trace.total_gpu_seconds()``.
"""

import numpy as np
import pytest

from repro.analysis.lemon_analysis import lemon_analysis
from repro.analysis.mttf_analysis import mttf_analysis
from repro.analysis.rolling_failures import failure_rate_timeline
from repro.live import LiveAnalytics, LiveConfig, replay_trace


def replayed(trace):
    analytics = LiveAnalytics(LiveConfig.for_trace(trace))
    replay_trace(trace, analytics)
    return analytics


@pytest.fixture(scope="module")
def live(rsc1_trace):
    return replayed(rsc1_trace)


def assert_timeline_matches_fold(analytics, trace):
    batch = failure_rate_timeline(trace)
    streamed = analytics.timeline()
    assert np.array_equal(streamed.times_days, batch.times_days)
    assert np.array_equal(streamed.overall, batch.overall)
    assert sorted(streamed.by_component) == sorted(batch.by_component)
    for component, series in batch.by_component.items():
        assert np.array_equal(streamed.by_component[component], series)
    assert streamed.check_introductions == batch.check_introductions
    assert streamed.window_days == batch.window_days


def assert_auto_floor_rf_matches_pinned_fold(analytics, trace):
    batch = mttf_analysis(trace).failure_rate
    failures, node_days = analytics.mttf.rf_inputs()
    assert failures == batch.events  # counts are integral: always exact
    assert node_days == pytest.approx(batch.exposure, rel=1e-9)


def test_no_late_events_slipped_past_finalized_points(live):
    assert live.rolling.late_events == 0


@pytest.mark.parametrize("reloaded", [False, True])
def test_rolling_timeline_bit_exact(live, rsc1_trace, reloaded, tmp_path):
    """The batch side folds the in-memory trace, or the same trace saved
    as JSONL and loaded back."""
    trace = rsc1_trace
    if reloaded:
        trace.save(tmp_path / "trace.jsonl")
        trace = type(rsc1_trace).load(tmp_path / "trace.jsonl")
    assert_timeline_matches_fold(live, trace)


def test_rf_auto_floor_within_tolerance(live, rsc1_trace):
    assert_auto_floor_rf_matches_pinned_fold(live, rsc1_trace)


def test_lemon_cohort_exact(live, rsc1_trace):
    batch = lemon_analysis(rsc1_trace)
    streamed = live.lemons.report()
    assert streamed.flagged_node_ids == batch.report.flagged_node_ids
    assert streamed.true_lemon_ids == batch.report.true_lemon_ids
    assert streamed.n_nodes == batch.report.n_nodes


def test_gpu_seconds_bit_exact(live, rsc1_trace):
    assert live.fleet.gpu_seconds == rsc1_trace.total_gpu_seconds()


def test_second_cluster_cross_validates_too(rsc2_trace):
    """The contracts are not seed luck: an RSC-2-like trace agrees too."""
    analytics = replayed(rsc2_trace)
    assert analytics.rolling.late_events == 0
    assert_timeline_matches_fold(analytics, rsc2_trace)
    assert_auto_floor_rf_matches_pinned_fold(analytics, rsc2_trace)
    assert analytics.fleet.gpu_seconds == rsc2_trace.total_gpu_seconds()
