"""Fleet health scoring: arithmetic, attribution, caps, adapters, and one
end-to-end observed chaos sweep."""

import json

import pytest

from repro import CampaignConfig, ClusterSpec
from repro.obs import (
    Telemetry,
    reconstruct_timeline,
    summarize,
    write_chrome_trace,
)
from repro.obs.health import (
    COMPONENT_BY_CONDITION,
    DEFAULT_HEALTH_DELTA_MAP,
    FleetHealthScorer,
    HealthSignals,
)
from repro.obs.summary import ObsSummary
from repro.resilience import Backoff, ChaosPolicy, ResilienceConfig, RetryPolicy
from repro.runtime import (
    CampaignPool,
    TraceCache,
    seed_sweep_configs,
    trace_digest,
)


def test_quiet_fleet_scores_100():
    report = FleetHealthScorer().score(HealthSignals(n_nodes=16))
    assert report.score == 100.0
    assert report.healthy
    assert report.messages == []
    assert report.applied == {}
    assert all(v == 100.0 for v in report.components.values())


def test_deltas_subtract_and_attribute():
    signals = HealthSignals(
        n_nodes=16, hardware_incidents=2, network_incidents=1
    )
    report = FleetHealthScorer().score(signals)
    expected = 100.0 - 2 * 4.0 - 1 * 6.0
    assert report.score == expected
    assert report.components["capacity"] == 100.0 - 8.0
    assert report.components["network"] == 100.0 - 6.0
    assert report.components["runtime"] == 100.0
    assert report.applied["hardware_failure"] == (2, 8.0)
    # One attributed message per active condition, naming its points.
    assert len(report.messages) == 2
    assert any("hardware_failure, -8" in m for m in report.messages)
    assert any("network_incident, -6" in m for m in report.messages)


def test_condition_cap_bounds_noisy_counters():
    signals = HealthSignals(n_nodes=16, retries=1000)
    report = FleetHealthScorer().score(signals)
    # 1000 * 0.5 = 500 points, capped at the default 40.
    assert report.applied["retry"] == (1000, 40.0)
    assert report.score == 60.0


def test_score_clamps_to_zero():
    signals = HealthSignals(
        n_nodes=16,
        hardware_incidents=10,
        network_incidents=10,
        retries=1000,
        breaker_open=True,
    )
    report = FleetHealthScorer().score(signals)
    assert report.score == 0.0
    assert all(0.0 <= v <= 100.0 for v in report.components.values())


def test_custom_delta_map_overrides_subset():
    scorer = FleetHealthScorer(health_delta_map={"retry": 0.0})
    report = scorer.score(HealthSignals(n_nodes=16, retries=50))
    assert report.score == 100.0
    assert "retry" not in report.applied
    # Untouched conditions keep their defaults.
    assert scorer.health_delta_map["breaker_open"] == (
        DEFAULT_HEALTH_DELTA_MAP["breaker_open"]
    )


def test_negative_delta_rejected():
    with pytest.raises(ValueError):
        FleetHealthScorer(health_delta_map={"retry": -1.0})
    with pytest.raises(ValueError):
        FleetHealthScorer(condition_cap=0.0)


def test_every_condition_has_component_and_message():
    # The delta map, component partition, and signals must stay in sync.
    counts = HealthSignals(n_nodes=1).condition_counts()
    assert set(counts) == set(DEFAULT_HEALTH_DELTA_MAP)
    assert set(counts) == set(COMPONENT_BY_CONDITION)


def test_signals_require_nodes():
    with pytest.raises(ValueError):
        HealthSignals(n_nodes=0)


def test_render_lists_conditions():
    report = FleetHealthScorer().score(
        HealthSignals(n_nodes=4, nodes_quarantined=1)
    )
    text = report.render()
    assert "fleet health" in text
    assert "conditions:" in text
    assert "quarantined" in text
    quiet = FleetHealthScorer().score(HealthSignals(n_nodes=4))
    assert "no active conditions" in quiet.render()


def test_to_dict_round_trips_applied():
    report = FleetHealthScorer().score(
        HealthSignals(n_nodes=4, timeouts=3)
    )
    payload = report.to_dict()
    assert payload["score"] == report.score
    assert payload["applied"]["timeout"] == {"count": 3, "points": 6.0}
    assert payload["messages"] == report.messages


def test_from_summary_splits_network_components():
    summary = ObsSummary()
    for component in ("gpu", "gpu", "ib_link"):
        summary.add_event(
            {
                "category": "failure.injected",
                "label": "node-1",
                "sim_time": 1.0,
                "attrs": {"component": component, "attributed": True},
            }
        )
    summary.resilience["resilience_retries_total"] = 4
    summary.resilience["resilience_circuit_open_total"] = 1
    summary.resilience["tracer_self_disabled"] = 1
    signals = HealthSignals.from_summary(summary, n_nodes=8)
    assert signals.hardware_incidents == 2
    assert signals.network_incidents == 1
    assert signals.retries == 4
    assert signals.breaker_open
    assert signals.tracer_self_disabled
    report = FleetHealthScorer().score(signals)
    assert 0.0 <= report.score < 100.0
    assert any("tracer" in m for m in report.messages)


def test_from_analytics_snapshots_live_state():
    from repro.live import LiveAnalytics, LiveConfig

    analytics = LiveAnalytics(
        LiveConfig(
            cluster_name="t", n_nodes=8, n_gpus=64, span_seconds=864000.0
        )
    )
    signals = HealthSignals.from_analytics(analytics)
    assert signals.n_nodes == 8
    assert signals.nodes_down == 0
    report = analytics.health()
    assert report.score == 100.0
    # An unfinished session far behind its span counts as stale.
    stale = HealthSignals.from_analytics(analytics, stale_after_days=1.0)
    assert stale.watermark_stale
    analytics.finish()
    fresh = HealthSignals.from_analytics(analytics, stale_after_days=1.0)
    assert not fresh.watermark_stale


def test_observed_chaos_sweep_scores_profiles_and_reconstructs(tmp_path):
    """End to end: a 3-seed sweep (24 nodes x 8 days) runs dark, then
    fully observed under seeded worker kills and cache corruption, twice
    (the second pass quarantines the entries the first one wrote).  The
    observed traces stay digest-identical to the dark ones, the fleet
    score attributes every injected fault class, the span export loads
    with its sweep -> campaign -> phase hierarchy, and each resolved
    incident's stage latencies sum to its downtime."""
    n_nodes = 24
    spec = ClusterSpec.rsc1_like(n_nodes=n_nodes, campaign_days=8)
    configs = seed_sweep_configs(
        CampaignConfig(cluster_spec=spec, duration_days=8, seed=0), range(3)
    )
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, backoff=Backoff(base_s=0.01, seed=1)),
        chaos=ChaosPolicy(
            seed=11,
            worker_kill_rate=0.6,
            max_kills_per_config=2,
            cache_corruption_rate=0.6,
        ),
        circuit_threshold=10,
    )
    want = [
        trace_digest(t)
        for t in CampaignPool(max_workers=1, cache=False).run(configs)
    ]

    # max_workers=1 keeps execution in-process, so campaign and phase
    # spans nest under the pool's sweep span and chaos kills land as
    # inline retries.
    telemetry = Telemetry.to_directory(tmp_path / "tel", stem="sweep")

    def observed_pass():
        cache = TraceCache(
            root=tmp_path / "cache", enabled=True, telemetry=telemetry
        )
        pool = CampaignPool(
            max_workers=1, cache=cache, resilience=resilience,
            telemetry=telemetry,
        )
        traces = pool.run(configs)
        assert [trace_digest(t) for t in traces] == want
        return traces, pool.last_stats, cache

    survived, stats, _cache = observed_pass()
    assert stats.retries > 0  # chaos landed
    _rebuilt, _stats, cache2 = observed_pass()
    assert cache2.quarantined > 0  # corruption landed
    spans_recorded = len(telemetry.spans.records)
    assert spans_recorded > 0
    telemetry.finalize()

    signals = HealthSignals.from_summary(
        summarize(tmp_path / "tel"), n_nodes=n_nodes
    )
    report = FleetHealthScorer().score(signals)
    assert 0.0 <= report.score <= 100.0
    for condition in ("hardware_failure", "retry", "cache_quarantine"):
        assert condition in report.applied, report.messages
        assert any(condition in m for m in report.messages)

    chrome_path = tmp_path / "sweep.chrome.json"
    assert write_chrome_trace(chrome_path, telemetry.spans.records) == (
        spans_recorded
    )
    events = json.loads(chrome_path.read_text())["traceEvents"]
    assert {"sweep", "campaign", "phase:simulate"} <= {e["name"] for e in events}
    assert all(e["ph"] == "X" for e in events)

    timelines = [reconstruct_timeline(t) for t in survived]
    for incident in (i for tl in timelines for i in tl.resolved()):
        stages = incident.stages()
        assert all(v >= 0.0 for v in stages.values())
        assert abs(sum(stages.values()) - incident.downtime_s) < 1e-9
    timeline_path = tmp_path / "sweep.timeline.json"
    timelines[0].write_json(timeline_path)
    assert json.loads(timeline_path.read_text())["n_incidents"] == len(
        timelines[0].incidents
    )
