"""CampaignPool: ordering, determinism (serial == pooled == cached), stats.

The sweep fixture simulates the same two-seed sweep twice (serial loop and
a forced 2-worker pool) and is module-scoped because each campaign costs
about a second; every test here reads the same immutable results.  The
timed sweep is the larger acceptance run: four RSC-1 seeds at 32 nodes x
20 days, serial, then pooled cold, then pooled warm from the cache.
"""

import os
import time
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


@pytest.fixture(scope="module")
def timed_sweep(tmp_path_factory):
    spec = ClusterSpec.rsc1_like(n_nodes=32, campaign_days=20)
    base = CampaignConfig(cluster_spec=spec, duration_days=20, seed=0)
    configs = seed_sweep_configs(base, range(4))

    t0 = time.perf_counter()
    serial = [run_campaign(c) for c in configs]
    serial_s = time.perf_counter() - t0

    cache = TraceCache(root=tmp_path_factory.mktemp("trace-cache"), enabled=True)
    pool = CampaignPool(cache=cache)
    t0 = time.perf_counter()
    cold = pool.run(configs)
    cold_s = time.perf_counter() - t0
    cold_stats = pool.last_stats
    per_seed = pool.metrics.histogram("campaign_wall_seconds").count
    warm = pool.run(configs)
    return SimpleNamespace(
        configs=configs,
        serial=serial,
        cold=cold,
        warm=warm,
        serial_s=serial_s,
        cold_s=cold_s,
        cold_stats=cold_stats,
        warm_stats=pool.last_stats,
        per_seed=per_seed,
    )


def test_timed_sweep_serial_pooled_and_cached_digests_agree(timed_sweep):
    serial_digests = [trace_digest(t) for t in timed_sweep.serial]
    assert serial_digests == [trace_digest(t) for t in timed_sweep.cold]
    assert serial_digests == [trace_digest(t) for t in timed_sweep.warm]


def test_timed_sweep_cold_simulates_and_warm_loads(timed_sweep):
    n_seeds = len(timed_sweep.configs)
    cold, warm = timed_sweep.cold_stats, timed_sweep.warm_stats
    assert cold.cache_hits == 0 and cold.simulated == n_seeds
    assert warm.cache_hits == n_seeds and warm.simulated == 0
    # Every simulated campaign observes into the per-seed histogram.
    assert timed_sweep.per_seed == n_seeds


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known cost: a verified cache get re-runs trace_digest over the "
        "whole trace, so a warm sweep is only ~2x faster than a cold "
        "one; an exact one-pass trace digest is the fix"
    ),
)
def test_timed_sweep_cache_hits_10x_faster_than_simulating(timed_sweep):
    warm_s = timed_sweep.warm_stats.wall_time_s
    assert warm_s < timed_sweep.cold_s / 10, (warm_s, timed_sweep.cold_s)


def test_timed_sweep_parallel_speedup(timed_sweep):
    """Only where there is parallel hardware."""
    if timed_sweep.cold_stats.workers >= 2 and (os.cpu_count() or 1) >= 4:
        assert timed_sweep.cold_s <= 0.55 * timed_sweep.serial_s, (
            timed_sweep.cold_s,
            timed_sweep.serial_s,
        )
