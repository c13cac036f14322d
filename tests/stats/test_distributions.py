import numpy as np
import pytest

from repro.stats.distributions import (
    MixtureSpec,
    truncated_lognormal,
    weighted_index,
)


def test_mixture_probabilities_normalized():
    spec = MixtureSpec.from_dict({1: 2.0, 8: 1.0, 64: 1.0})
    assert spec.probabilities().sum() == pytest.approx(1.0)
    assert spec.values().tolist() == [1, 8, 64]
    assert spec.probabilities().tolist() == pytest.approx([0.5, 0.25, 0.25])


def test_mixture_sampling_matches_weights():
    spec = MixtureSpec.from_dict({1: 0.8, 8: 0.2})
    rng = np.random.default_rng(3)
    samples = spec.values()[[weighted_index(spec.cdf, rng) for _ in range(10_000)]]
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


def test_truncated_lognormal_falls_back_to_clipping():
    # Impossible bounds for the draw: must clip rather than hang.
    rng = np.random.default_rng(0)
    out = [
        truncated_lognormal(rng, np.log(100.0), 1e-9, minimum=0.0, maximum=1.0)
        for _ in range(10)
    ]
    assert out == [1.0] * 10
