"""Fuzzing the live ingest boundary with ``ChaosPolicy`` junk items.

``ChaosPolicy.mangle_stream`` injects malformed items (a ``None`` payload
on a real channel), some of them backdated behind the watermark, ahead of
real ones.  A session must raise on the first junk item, and the rejected
item must change nothing but ``version``: the session's snapshot equals
that of a fresh session fed only the real items before it.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import CampaignConfig, ClusterSpec, run_campaign
from repro.live import LiveAnalytics, LiveConfig
from repro.live.replay import iter_trace_stream
from repro.resilience.chaos import ChaosPolicy

rates = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def trace():
    spec = ClusterSpec.rsc1_like(n_nodes=12, campaign_days=6)
    return run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=6, seed=1)
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    malformed_item_rate=st.floats(min_value=0.001, max_value=1.0),
    late_item_rate=rates,
)
def test_strict_session_raises_on_the_first_junk_item(
    trace, seed, malformed_item_rate, late_item_rate
):
    chaos = ChaosPolicy(
        seed=seed,
        malformed_item_rate=malformed_item_rate,
        late_item_rate=late_item_rate,
    )
    items = list(chaos.mangle_stream(iter_trace_stream(trace)))
    junk = [i for i, (_t, _c, payload) in enumerate(items) if payload is None]
    assume(junk)

    analytics = LiveAnalytics(LiveConfig.for_trace(trace))
    ingested = 0
    with pytest.raises(ValueError, match="malformed stream item"):
        for item in items:
            analytics.ingest(*item)
            ingested += 1
    assert ingested == junk[0]
    assert sum(analytics.counts.values()) == junk[0]

    clean = LiveAnalytics(LiveConfig.for_trace(trace))
    for item in items[: junk[0]]:
        clean.ingest(*item)
    assert analytics.snapshot() == clean.snapshot()
    assert analytics.version == clean.version + 1
