"""``rate_confidence_interval`` equals its ``sps.gamma.ppf`` form.

The interval now takes its quantiles from ``scipy.special.gammaincinv``
directly.  The reference below is the function as it was before, kept
verbatim, which asks ``scipy.stats.gamma.ppf`` with ``loc=0, scale=1``.
Over every event count from 0 to 2000 plus 10**5 and 10**6, at each
confidence level, both bounds must be equal under ``==``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.stats.fitting import rate_confidence_interval


def reference_rate_confidence_interval(events, exposure, confidence=0.90):
    """Gamma (chi-square) confidence interval for a Poisson rate.

    Uses the standard exact interval: with ``k`` events in exposure ``T``,
    the lower bound is ``Gamma(k, 1)``'s alpha/2 quantile / T and the upper
    ``Gamma(k+1, 1)``'s 1-alpha/2 quantile / T.  With zero events the lower
    bound is 0.
    """
    if events < 0:
        raise ValueError(f"events must be non-negative, got {events}")
    if exposure <= 0:
        raise ValueError(f"exposure must be positive, got {exposure}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    lo = 0.0 if events == 0 else sps.gamma.ppf(alpha / 2, a=events) / exposure
    hi = sps.gamma.ppf(1 - alpha / 2, a=events + 1) / exposure
    return float(lo), float(hi)


EVENT_COUNTS = list(range(0, 2001)) + [10**5, 10**6]


@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999])
def test_grid_equals_ppf(confidence):
    for events in EVENT_COUNTS:
        assert rate_confidence_interval(events, 1.0, confidence) == (
            reference_rate_confidence_interval(events, 1.0, confidence)
        ), events


@given(
    events=st.integers(min_value=0, max_value=10**6),
    exposure=st.floats(min_value=1e-6, max_value=1e9),
    confidence=st.floats(min_value=1e-6, max_value=1 - 1e-9),
)
@settings(max_examples=300, deadline=None)
def test_any_input_equals_ppf(events, exposure, confidence):
    assert rate_confidence_interval(events, exposure, confidence) == (
        reference_rate_confidence_interval(events, exposure, confidence)
    )
