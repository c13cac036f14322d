import pytest

from probes import CampaignProbe, patched, probed_run_campaign


@pytest.fixture(scope="module")
def small_config():
    from repro import CampaignConfig, ClusterSpec

    spec = ClusterSpec.rsc1_like(n_nodes=16, campaign_days=4)
    return CampaignConfig(cluster_spec=spec, duration_days=4, seed=11)


def test_probed_campaign_is_digest_neutral(small_config):
    from repro import run_campaign
    from repro.runtime import trace_digest

    dark = trace_digest(run_campaign(small_config))
    probe = CampaignProbe()
    traced = trace_digest(probed_run_campaign(probe)(small_config))
    assert traced == dark
    assert probe.groups["sched-pass"].calls > 0


def test_callback_groups_and_dispatch_account_for_run_until(small_config):
    probe = CampaignProbe()
    probed_run_campaign(probe)(small_config)
    layers = probe.metrics()
    assert layers["sim.dispatch_s"] >= 0
    assert layers["sim.callbacks_s"] + layers["sim.dispatch_s"] == pytest.approx(
        layers["sim.run_until_s"]
    )
    # Every executed callback but the first tick (armed before the probe
    # attaches) is counted in exactly one group.
    counted = sum(timer.calls for timer in probe.groups.values())
    assert counted == layers["sim.events_n"] - 1
    assert 0 < layers["scheduler.pass_useful_ratio"] <= 1
    assert layers["campaign.trace_build_s"] > 0


def test_cache_path_uses_the_probe(small_config, tmp_path):
    from repro import campaign as campaign_module
    from repro.runtime import TraceCache, cached_run_campaign, trace_digest

    original = campaign_module.run_campaign
    probe = CampaignProbe()
    cache = TraceCache(root=tmp_path)
    with patched(campaign_module, "run_campaign", probed_run_campaign(probe)):
        trace = cached_run_campaign(small_config, cache=cache)
    assert campaign_module.run_campaign is original
    assert probe.metrics()["campaign.build_s"] > 0
    assert trace_digest(cache.get(small_config)) == trace_digest(trace)
