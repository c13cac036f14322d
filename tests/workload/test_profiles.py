import numpy as np
import pytest

from repro.jobtypes import IntendedOutcome, QosTier
from repro.sim.timeunits import HOUR
from repro.workload.profiles import (
    MAX_WORK_SECONDS,
    SizeDurationSpec,
    WorkloadProfile,
    rsc1_profile,
    rsc2_profile,
)


@pytest.fixture(params=["rsc1", "rsc2"])
def profile(request):
    return rsc1_profile() if request.param == "rsc1" else rsc2_profile()


def test_size_mixture_probabilities_sum_to_one(profile):
    assert profile.size_mixture.probabilities().sum() == pytest.approx(1.0)


def test_every_size_has_duration_spec(profile):
    for size in profile.size_mixture.values():
        assert int(size) in profile.durations


def test_over_ninety_percent_of_jobs_at_most_one_server(profile):
    fractions = profile.expected_job_fraction_by_size()
    small = sum(f for s, f in fractions.items() if s <= 8)
    assert small > 0.90  # Observation 7


def test_small_jobs_draw_little_compute(profile):
    compute = profile.expected_compute_fraction_by_size()
    small = sum(f for s, f in compute.items() if s <= 8)
    assert small < 0.10  # Observation 7


def test_rsc1_large_job_compute_share_near_paper():
    compute = rsc1_profile().expected_compute_fraction_by_size()
    large = sum(f for s, f in compute.items() if s >= 256)
    assert 0.55 <= large <= 0.80  # paper: ~66%
    assert 0.08 <= compute[4096] <= 0.16  # paper: ~12% from 4k jobs


def test_rsc2_tilts_toward_one_gpu_jobs():
    r1 = rsc1_profile().expected_job_fraction_by_size()[1]
    r2 = rsc2_profile().expected_job_fraction_by_size()[1]
    assert r2 > r1 > 0.40


def test_rsc2_tops_out_at_1k_gpus():
    assert rsc2_profile().max_size() == 1024
    assert rsc1_profile().max_size() == 4096


def test_durations_truncated_at_lifetime_cap(profile):
    rng = np.random.default_rng(0)
    for size in (1, 8):
        samples = [profile.sample_work_seconds(size, rng) for _ in range(500)]
        assert max(samples) <= MAX_WORK_SECONDS
        assert min(samples) >= 60.0


def test_larger_jobs_run_longer_in_median(profile):
    assert (
        profile.durations[256].median_hours
        > profile.durations[8].median_hours
        > profile.durations[1].median_hours
    )


def test_qos_assignment_by_size(profile):
    rng = np.random.default_rng(1)
    large = {profile.sample_qos(512, rng) for _ in range(50)}
    assert large == {QosTier.HIGH}
    small = [profile.sample_qos(1, rng) for _ in range(300)]
    assert QosTier.HIGH not in small
    assert QosTier.LOW in small and QosTier.NORMAL in small


def test_outcome_probabilities_sum_to_one(profile):
    assert sum(profile.outcome_probabilities.values()) == pytest.approx(1.0)
    assert profile.outcome_probabilities[IntendedOutcome.COMPLETED] > 0.6


def test_restricted_profile_drops_large_sizes():
    restricted = rsc1_profile().restricted_to_max_size(64)
    assert restricted.max_size() <= 64
    assert restricted.size_mixture.probabilities().sum() == pytest.approx(1.0)


def test_restricted_profile_rejects_impossible_cap():
    with pytest.raises(ValueError):
        rsc1_profile().restricted_to_max_size(0)


def test_duration_spec_mean_above_median():
    spec = SizeDurationSpec(median_hours=2.0, sigma=1.0)
    assert spec.mean_hours() > spec.median_hours


def test_projects_sampled_from_zipf(profile):
    rng = np.random.default_rng(2)
    projects = [profile.sample_project(rng) for _ in range(500)]
    counts = {}
    for p in projects:
        counts[p] = counts.get(p, 0) + 1
    # A few projects dominate.
    top = max(counts.values())
    assert top > len(projects) / profile.n_projects * 2


# ----------------------------------------------------------------------
# probabilities are validated when the profile is built
# ----------------------------------------------------------------------
def _with(**overrides):
    base = rsc1_profile()
    fields = dict(
        name=base.name,
        size_mixture=base.size_mixture,
        durations=base.durations,
        outcome_probabilities=base.outcome_probabilities,
    )
    fields.update(overrides)
    return WorkloadProfile(**fields)


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
def test_outcome_probability_must_be_finite_and_non_negative(bad):
    outcomes = {
        IntendedOutcome.COMPLETED: 0.9 - (bad if bad == -0.1 else 0.0),
        IntendedOutcome.FAILED_USER: 0.1,
        IntendedOutcome.CANCELLED: bad,
    }
    with pytest.raises(ValueError, match="outcome probabilities"):
        _with(outcome_probabilities=outcomes)


@pytest.mark.parametrize(
    "probs",
    [
        (0.6, 0.3995, 0.0),  # sums to 0.9995: choice would reject it
        (0.6, 0.4, 1e-6),
        (1.1, -0.1, 0.0),  # sums to 1 with a negative entry
        (0.5, 0.5, float("nan")),
        (0.5, 0.5),
    ],
)
@pytest.mark.parametrize("which", ["qos_small_probs", "qos_medium_probs", "qos_large_probs"])
def test_qos_probabilities_rejected_where_choice_would_reject(which, probs):
    with pytest.raises(ValueError, match="QoS probabilities"):
        _with(**{which: probs})


def test_qos_sum_within_choice_tolerance_accepted():
    profile = _with(qos_small_probs=(0.1, 0.2, 0.7))  # 0.1 + 0.2 != 0.3 exactly
    rng = np.random.default_rng(0)
    assert {profile.sample_qos(1, rng) for _ in range(200)} == set(QosTier)


def test_n_projects_must_be_positive():
    with pytest.raises(ValueError, match="n_projects"):
        _with(n_projects=0)


def test_sampling_tables_do_not_change_equality_or_digest():
    from repro.runtime.hashing import canonicalize

    fresh, drawn = rsc1_profile(), rsc1_profile()
    before = canonicalize(drawn)
    rng = np.random.default_rng(0)
    drawn.sample_project(rng)
    drawn.sample_qos(drawn.sample_size(rng), rng)
    drawn.sample_outcome(rng)
    drawn.sample_work_seconds(8, rng)
    assert drawn == fresh
    assert canonicalize(drawn) == before == canonicalize(fresh)
