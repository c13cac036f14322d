"""Property-based tests on the statistics substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.fitting import estimate_rate
from repro.stats.quantiles import ecdf, power_of_two_bucket


@given(
    events=st.integers(min_value=0, max_value=10_000),
    exposure=st.floats(min_value=0.01, max_value=1e7, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_rate_interval_always_brackets_point(events, exposure):
    est = estimate_rate(events, exposure)
    assert 0.0 <= est.lo <= est.rate <= est.hi
    if events > 0:
        assert est.lo < est.hi


@given(
    events=st.integers(min_value=1, max_value=1000),
    exposure=st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_mttf_bounds_invert_rate_bounds(events, exposure):
    est = estimate_rate(events, exposure)
    assert est.mttf_lo <= est.mttf <= est.mttf_hi


@given(
    samples=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_ecdf_monotone_and_normalized(samples):
    values, fracs = ecdf(samples)
    assert np.all(np.diff(values) >= 0)
    assert np.all(np.diff(fracs) > 0)
    assert fracs[-1] == 1.0
    assert fracs[0] > 0


@given(n=st.integers(min_value=1, max_value=1_000_000))
@settings(max_examples=200, deadline=None)
def test_power_of_two_bucket_properties(n):
    bucket = power_of_two_bucket(n)
    assert bucket >= n
    assert bucket & (bucket - 1) == 0  # is a power of two
    assert bucket < 2 * n or bucket == 1
