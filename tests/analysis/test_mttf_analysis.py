import pytest

from repro.analysis.mttf_analysis import mttf_analysis


def test_buckets_cover_observed_sizes(rsc1_trace):
    result = mttf_analysis(rsc1_trace)
    sizes = [b.gpus for b in result.buckets]
    assert 8 in sizes
    assert max(sizes) >= 128
    assert sizes == sorted(sizes)


def test_rf_in_plausible_band(rsc1_trace):
    result = mttf_analysis(rsc1_trace)
    # Baseline 6.5/1k node-days, with regimes and lemons pushing it up.
    assert 3.0 < result.rf_per_1000_node_days < 20.0


def test_mttf_decreases_with_scale(rsc1_trace):
    """Observation 8: MTTF shrinks roughly as 1/N for larger jobs."""
    result = mttf_analysis(rsc1_trace)
    with_failures = [b for b in result.buckets if b.failures > 0]
    if len(with_failures) >= 2:
        assert with_failures[-1].mttf_hours < with_failures[0].mttf_hours


def test_projection_matches_empirical_for_large_buckets(rsc1_trace):
    """The theory line should pass through the large-bucket CIs."""
    result = mttf_analysis(rsc1_trace)
    checked = 0
    for bucket in result.buckets:
        if bucket.gpus < 32 or bucket.failures < 3:
            continue
        theory = result.projection[bucket.gpus]
        assert bucket.mttf_hours_lo * 0.5 <= theory <= bucket.mttf_hours_hi * 2
        checked += 1
    assert checked >= 1, "no large buckets with enough failures to validate"


def test_extrapolations_present(rsc1_trace):
    result = mttf_analysis(rsc1_trace)
    assert result.projection[16384] < result.projection[4096]
    assert result.projection[131072] < 1.0  # sub-hour at extreme scale


def test_render(rsc1_trace):
    text = mttf_analysis(rsc1_trace).render()
    assert "Fig. 7" in text
    assert "r_f" in text


def test_fig7_paper_scaling(paper_rsc1_trace):
    """Fig. 7 RSC-1 at figure scale (paper: MTTF drops ~1/N; 8-GPU 47.7d
    vs 1024-GPU 7.9h; projected 16,384 GPUs -> 1.8h, 131,072 -> 0.23h at
    r_f = 6.50/1k node-days)."""
    result = mttf_analysis(paper_rsc1_trace)
    # MTTF strictly decreasing from the smallest observed bucket with
    # failures to the largest.
    with_failures = [b for b in result.buckets if b.failures >= 2]
    if len(with_failures) >= 2:
        assert with_failures[0].mttf_hours > with_failures[-1].mttf_hours
    # Extrapolations scale exactly as 1/N.
    assert result.projection[16384] / result.projection[131072] == (
        131072 / 16384
    )


def test_fig7_rsc2_more_reliable(paper_rsc1_trace, paper_rsc2_trace):
    """Fig. 7 RSC-2 (paper: tends to be more reliable)."""
    rsc1 = mttf_analysis(paper_rsc1_trace)
    rsc2 = mttf_analysis(paper_rsc2_trace)
    assert rsc2.rf_per_1000_node_days < rsc1.rf_per_1000_node_days
