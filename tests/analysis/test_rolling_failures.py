import numpy as np
import pytest

from repro.analysis.rolling_failures import failure_rate_timeline


def test_timeline_shape(rsc1_trace):
    timeline = failure_rate_timeline(rsc1_trace)
    assert timeline.times_days[0] == 0.0
    assert timeline.times_days[-1] == pytest.approx(40.0)
    assert timeline.overall.shape == timeline.times_days.shape
    assert np.all(timeline.overall >= 0)


def test_rates_in_plausible_band(rsc1_trace):
    timeline = failure_rate_timeline(rsc1_trace)
    # Fleet baseline ~6.5/1k node-days with regimes pushing higher.
    mean_rate = float(np.mean(timeline.overall[timeline.overall > 0]))
    assert 1.0 < mean_rate < 60.0


def test_component_series_sum_close_to_overall(rsc1_trace):
    timeline = failure_rate_timeline(rsc1_trace)
    stacked = np.sum(list(timeline.by_component.values()), axis=0)
    assert np.allclose(stacked, timeline.overall, atol=1e-9)


def test_check_introduction_markers_present(rsc1_trace):
    timeline = failure_rate_timeline(rsc1_trace)
    assert "filesystem_mounts" in timeline.check_introductions
    # The mount check lands ~30% into the campaign.
    day = timeline.check_introductions["filesystem_mounts"]
    assert day >= 0.3 * 40 - 1


def test_gsp_era_elevates_gpu_failures(rsc1_trace):
    """The driver-bug regime occupies the first quarter of the campaign."""
    timeline = failure_rate_timeline(rsc1_trace)
    gpu = timeline.by_component.get("gpu")
    if gpu is None:
        pytest.skip("no GPU incidents in this campaign")
    days = timeline.times_days
    early = gpu[(days > 2) & (days < 10)].mean()
    late = gpu[days > 20].mean()
    assert early > late


def test_render(rsc1_trace):
    text = failure_rate_timeline(rsc1_trace).render()
    assert "Fig. 5" in text


def test_fig5_paper_evolution(paper_rsc1_trace):
    """Fig. 5 at figure scale (paper: the rate swings by ~an order of
    magnitude; a driver-bug era, a mount wave after its check lands, an
    IB-link spike from a few nodes)."""
    timeline = failure_rate_timeline(paper_rsc1_trace)
    # Rate is dynamic: peak well above the floor.
    positive = timeline.overall[timeline.overall > 0]
    assert positive.size > 0
    assert float(np.max(timeline.overall)) > 2 * float(np.median(positive))
    # The IB spike era (62-72% of the span) elevates ib_link failures.
    ib = timeline.by_component.get("ib_link")
    if ib is not None:
        days = timeline.times_days
        span = days[-1]
        inside = ib[(days > 0.62 * span) & (days < 0.75 * span)].mean()
        outside = ib[days < 0.5 * span].mean()
        assert inside > outside
    assert "filesystem_mounts" in timeline.check_introductions
