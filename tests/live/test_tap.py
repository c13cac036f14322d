"""Live campaign tap: hooks, equivalence with replay, cleanup."""

import json

import pytest

from repro.campaign import Campaign, CampaignConfig
from repro.cluster.cluster import ClusterSpec
from repro.live import (
    LiveAnalytics,
    LiveConfig,
    replay_trace,
    tap_campaign,
)


def _config(n_nodes=16, days=10, seed=3):
    spec = ClusterSpec.rsc1_like(n_nodes=n_nodes, campaign_days=days)
    return CampaignConfig(cluster_spec=spec, duration_days=days, seed=seed)


def test_tapped_campaign_equals_replay_bit_for_bit():
    """The tentpole equivalence: tap-while-running == replay-afterward.

    Both modes deliver the same items in the same per-channel order, so
    every estimator's floating-point accumulation sequence is identical
    and the final snapshots must match byte for byte.
    """
    config = _config()
    tapped = LiveAnalytics(LiveConfig.for_config(config))
    trace = tap_campaign(Campaign(config), tapped)
    assert sum(tapped.counts.values()) > 0

    replayed = LiveAnalytics(LiveConfig.for_trace(trace))
    replay_trace(trace, replayed)

    assert json.dumps(tapped.snapshot(), sort_keys=True) == json.dumps(
        replayed.snapshot(), sort_keys=True
    )


def test_tap_does_not_change_the_trace():
    """Attaching the tap must not perturb the simulation itself."""
    config = _config(n_nodes=12, days=8, seed=5)
    plain = Campaign(config).run()
    analytics = LiveAnalytics(LiveConfig.for_config(config))
    tapped_trace = tap_campaign(Campaign(config), analytics)
    assert tapped_trace.job_records == plain.job_records
    assert tapped_trace.events == plain.events
    assert tapped_trace.node_records == plain.node_records


def test_tap_detaches_hooks_after_run():
    config = _config(n_nodes=8, days=5, seed=1)
    campaign = Campaign(config)
    analytics = LiveAnalytics(LiveConfig.for_config(config))
    tap_campaign(campaign, analytics)
    assert campaign.scheduler.on_record is None
    assert campaign.event_log.listener is None


def test_tap_refuses_taken_hooks():
    config = _config(n_nodes=8, days=5, seed=1)
    campaign = Campaign(config)
    campaign.scheduler.on_record = lambda record: None
    analytics = LiveAnalytics(
        LiveConfig(
            cluster_name="x",
            n_nodes=8,
            n_gpus=64,
            span_seconds=5 * 86400.0,
        )
    )
    with pytest.raises(RuntimeError, match="already taken"):
        tap_campaign(campaign, analytics)
    assert campaign.event_log.listener is None  # nothing half-attached
    assert sum(analytics.counts.values()) == 0


def test_on_item_runs_after_every_ingested_item():
    seen = []

    def on_item():
        seen.append(sum(analytics.counts.values()))

    config = _config(n_nodes=8, days=5, seed=1)
    analytics = LiveAnalytics(LiveConfig.for_config(config))
    trace = tap_campaign(Campaign(config), analytics, on_item=on_item)
    assert seen == list(range(1, len(seen) + 1))
    assert len(seen) == (
        len(trace.job_records) + len(trace.events) + len(trace.node_records)
    )
