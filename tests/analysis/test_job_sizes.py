import pytest

from repro.analysis.job_sizes import job_size_distribution
from repro.workload.profiles import rsc1_profile, rsc2_profile


def test_fractions_sum_to_one(rsc1_trace):
    result = job_size_distribution(rsc1_trace)
    assert sum(result.job_fraction.values()) == pytest.approx(1.0)
    assert sum(result.compute_fraction.values()) == pytest.approx(1.0)


def test_observation7_shape(rsc1_trace):
    result = job_size_distribution(rsc1_trace)
    assert result.fraction_of_jobs_at_most(8) > 0.85
    small_compute = 1.0 - result.fraction_of_compute_at_least(16)
    assert small_compute < 0.15


def test_large_jobs_dominate_compute(rsc1_trace):
    result = job_size_distribution(rsc1_trace)
    # The 64-node test cluster caps jobs at 256 GPUs; even so the top
    # sizes should dominate compute.
    assert result.fraction_of_compute_at_least(64) > 0.5


def test_profile_series_attached_when_given(rsc1_trace):
    result = job_size_distribution(rsc1_trace, profile=rsc1_profile())
    assert result.profile_job_fraction is not None
    assert result.profile_job_fraction[1] > 0.4
    assert sum(result.profile_compute_fraction.values()) == pytest.approx(1.0)


def test_render(rsc1_trace):
    text = job_size_distribution(rsc1_trace, profile=rsc1_profile()).render()
    assert "Fig. 6" in text
    assert "% jobs (model)" in text


def test_fig6_rsc1_paper_shares(paper_rsc1_trace):
    """Fig. 6 RSC-1 at figure scale (paper: >40% 1-GPU jobs; >90% of
    jobs <= 1 server yet <10% of GPU time; 256+ GPU jobs ~66% of compute
    at full scale)."""
    result = job_size_distribution(paper_rsc1_trace, rsc1_profile())
    assert result.job_fraction[1] > 0.40
    assert result.fraction_of_jobs_at_most(8) > 0.88
    assert sum(
        f for s, f in result.compute_fraction.items() if s <= 8
    ) < 0.12
    # The full-scale profile (not the capped 128-node replica) carries
    # the paper's 256+ share.
    model_large = sum(
        f for s, f in result.profile_compute_fraction.items() if s >= 256
    )
    assert 0.55 <= model_large <= 0.80


def test_fig6_rsc2_paper_shares(paper_rsc2_trace):
    """Fig. 6 RSC-2 (paper: a stronger 1-GPU tilt; 256+ ~52%)."""
    result = job_size_distribution(paper_rsc2_trace, rsc2_profile())
    assert result.job_fraction[1] > 0.50
    model_large = sum(
        f for s, f in result.profile_compute_fraction.items() if s >= 256
    )
    assert 0.40 <= model_large <= 0.75
