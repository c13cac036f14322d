import numpy as np
import pytest

from repro.stats.distributions import (
    LogNormalSpec,
    MixtureSpec,
    ZipfSizeSpec,
    truncated_sample,
)


def test_lognormal_median_is_exp_mu():
    spec = LogNormalSpec(mu=np.log(4.0), sigma=1.0)
    assert spec.median == pytest.approx(4.0)
    rng = np.random.default_rng(0)
    samples = spec.sample(rng, size=20_000)
    assert float(np.median(samples)) == pytest.approx(4.0, rel=0.05)


def test_lognormal_truncation_respected():
    spec = LogNormalSpec(mu=0.0, sigma=2.0, minimum=0.5, maximum=3.0)
    rng = np.random.default_rng(1)
    samples = spec.sample(rng, size=5000)
    assert samples.min() >= 0.5
    assert samples.max() <= 3.0


def test_lognormal_invalid_params():
    with pytest.raises(ValueError):
        LogNormalSpec(mu=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        LogNormalSpec(mu=0.0, sigma=1.0, minimum=5.0, maximum=1.0)


def test_zipf_probabilities_decrease_and_sum_to_one():
    spec = ZipfSizeSpec(support=(1, 2, 4, 8))
    probs = spec.probabilities()
    assert probs.sum() == pytest.approx(1.0)
    assert all(probs[i] > probs[i + 1] for i in range(len(probs) - 1))


def test_zipf_samples_in_support():
    spec = ZipfSizeSpec(support=(1, 8, 64))
    rng = np.random.default_rng(2)
    samples = spec.sample(rng, size=1000)
    assert set(np.unique(samples)) <= {1, 8, 64}


def test_mixture_probabilities_normalized():
    spec = MixtureSpec.from_dict({1: 2.0, 8: 1.0, 64: 1.0})
    assert spec.probabilities().sum() == pytest.approx(1.0)
    assert spec.probability_of(1) == pytest.approx(0.5)
    assert spec.probability_of(999) == 0.0


def test_mixture_sampling_matches_weights():
    spec = MixtureSpec.from_dict({1: 0.8, 8: 0.2})
    rng = np.random.default_rng(3)
    samples = spec.sample(rng, size=10_000)
    assert float(np.mean(samples == 1)) == pytest.approx(0.8, abs=0.02)


def test_mixture_rejects_bad_weights():
    with pytest.raises(ValueError):
        MixtureSpec.from_dict({})
    with pytest.raises(ValueError):
        MixtureSpec.from_dict({1: -1.0})
    with pytest.raises(ValueError):
        MixtureSpec.from_dict({1: 0.0})
    with pytest.raises(ValueError):
        MixtureSpec.from_dict({1: 1.0, 8: float("inf")})
    with pytest.raises(ValueError):
        MixtureSpec.from_dict({1: 1.0, 8: float("nan")})


def test_mixture_rejects_negative_sample_size():
    with pytest.raises(ValueError):
        MixtureSpec.from_dict({1: 1.0}).sample(np.random.default_rng(0), size=-1)


def test_sample_lognormal_median_form():
    # A log-normal parameterized by its median: mu = log(median).
    spec = LogNormalSpec(mu=float(np.log(10.0)), sigma=0.5)
    samples = spec.sample(np.random.default_rng(4), size=20_000)
    assert float(np.median(samples)) == pytest.approx(10.0, rel=0.05)


def test_truncated_sample_falls_back_to_clipping():
    # Impossible bounds for the draw: must clip rather than hang.
    out = truncated_sample(
        lambda n: np.full(n, 100.0), minimum=0.0, maximum=1.0, size=10
    )
    assert len(out) == 10
    assert np.all(out == 1.0)
