"""CampaignPool: ordering, determinism (serial == pooled == cached), stats.

The sweep fixture simulates the same two-seed sweep twice (serial loop and
a forced 2-worker pool) and is module-scoped because each campaign costs
about a second; every test here reads the same immutable results.
"""

from types import SimpleNamespace

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions, run_campaign
from repro.runtime import (
    CampaignPool,
    TraceCache,
    run_campaigns,
    seed_sweep_configs,
    trace_digest,
)

NODES = 16
DAYS = 8
SEEDS = [1, 2]


def _base_config():
    spec = ClusterSpec.rsc1_like(n_nodes=NODES, campaign_days=DAYS)
    return CampaignConfig(cluster_spec=spec, duration_days=DAYS, seed=0)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    configs = seed_sweep_configs(_base_config(), SEEDS)
    serial = [run_campaign(c) for c in configs]
    cache = TraceCache(root=tmp_path_factory.mktemp("pool-cache"), enabled=True)
    pool = CampaignPool(max_workers=2, cache=cache)
    pooled = pool.run(configs)
    return SimpleNamespace(
        configs=configs,
        serial=serial,
        pooled=pooled,
        cache=cache,
        pool=pool,
        cold_stats=pool.last_stats,
    )


def test_seed_sweep_configs_only_vary_the_seed():
    base = _base_config()
    configs = seed_sweep_configs(base, SEEDS)
    assert [c.seed for c in configs] == SEEDS
    assert all(c.cluster_spec is base.cluster_spec for c in configs)
    assert all(c.duration_days == base.duration_days for c in configs)


def test_results_come_back_in_input_order(sweep):
    assert [t.metadata["seed"] for t in sweep.pooled] == SEEDS


def test_determinism_serial_vs_pool_vs_cache(sweep):
    """Satellite: same (config, seed) -> identical trace, however executed."""
    serial_digests = [trace_digest(t) for t in sweep.serial]
    assert [trace_digest(t) for t in sweep.pooled] == serial_digests

    # Third execution path: loaded back from the content-addressed cache.
    warm = sweep.pool.run(sweep.configs)
    assert [trace_digest(t) for t in warm] == serial_digests
    assert sweep.pool.last_stats.cache_hits == len(SEEDS)
    assert sweep.pool.last_stats.simulated == 0
    assert all(t.metadata["runtime"]["source"] == "cache" for t in warm)


def test_cold_run_accounting(sweep):
    stats = sweep.cold_stats
    assert stats.campaigns == len(SEEDS)
    assert stats.cache_hits == 0
    assert stats.simulated == len(SEEDS)
    assert 1 <= stats.workers <= 2
    assert stats.events_executed > 0
    assert stats.events_per_sec > 0
    rendered = stats.render()
    assert "cache hits" in rendered and "events/s" in rendered


def test_simulated_traces_carry_runtime_metadata(sweep):
    for trace in sweep.pooled:
        runtime = trace.metadata["runtime"]
        assert runtime["source"] == "simulated"
        assert runtime["executor"] in ("process", "inline")
        assert runtime["wall_time_s"] > 0
        assert runtime["events_executed"] > 0


def test_inline_path_matches_pooled(sweep):
    """max_workers=1 forces in-process execution with identical traces."""
    inline_pool = CampaignPool(max_workers=1, cache=False)
    inline = inline_pool.run(sweep.configs[:1])
    assert inline_pool.last_stats.workers == 1
    assert inline[0].metadata["runtime"]["executor"] == "inline"
    assert trace_digest(inline[0]) == trace_digest(sweep.serial[0])


def test_cache_false_disables_caching(tmp_path):
    pool = CampaignPool(cache=False)
    assert pool.cache is None


def test_bad_worker_count_rejected():
    with pytest.raises(ValueError):
        CampaignPool(max_workers=0)


def test_empty_sweep():
    pool = CampaignPool(cache=False)
    assert pool.run([]) == []
    assert pool.last_stats.campaigns == 0


def test_run_campaigns_wrapper(sweep):
    traces = run_campaigns(
        sweep.configs[:1], RunOptions(workers=1, cache=sweep.cache)
    )
    assert len(traces) == 1
    assert trace_digest(traces[0]) == trace_digest(sweep.serial[0])
    assert traces[0].metadata["runtime"]["source"] == "cache"
