"""Chaos-driven pool properties: recovery never changes results.

The acceptance bar for the whole resilience layer: under any seeded
:class:`ChaosPolicy`, ``CampaignPool.run`` returns traces bit-identical
(by ``trace_digest``) to a fault-free run — faults land, the recovery
machinery absorbs them, the science is unaffected.
"""

import warnings

import pytest

from repro import RunOptions
from repro.resilience import (
    Backoff,
    ChaosPolicy,
    ResilienceConfig,
    RetryPolicy,
    WorkerKilled,
)
from repro.runtime import (
    CampaignPool,
    TraceCache,
    config_digest,
    run_campaigns,
    trace_digest,
)

#: No sleeping between test retries: determinism comes from seeds, not
#: wall-clock, so the schedule can collapse to zero.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff=Backoff(base_s=0.0, jitter=0.0))


def _resilience(chaos=None, **kw):
    return ResilienceConfig(retry=FAST_RETRY, chaos=chaos, **kw)


@pytest.mark.parametrize("chaos_seed", [1, 7, 13])
def test_inline_chaos_run_is_bit_identical(tiny_configs, tiny_digests, chaos_seed):
    chaos = ChaosPolicy(
        seed=chaos_seed, worker_kill_rate=0.7, max_kills_per_config=2
    )
    pool = CampaignPool(
        max_workers=1, cache=False, resilience=_resilience(chaos)
    )
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    # With a 0.7 kill rate across 3 configs some attempt must have died.
    assert pool.last_stats.retries > 0


def test_kill_every_attempt_within_budget_still_completes(
    tiny_configs, tiny_digests
):
    """kill_rate=1.0 kills attempts 0 and 1 of every config; the budget
    (max_kills_per_config=2 < max_attempts=3) guarantees attempt 2 lives."""
    chaos = ChaosPolicy(seed=0, worker_kill_rate=1.0, max_kills_per_config=2)
    pool = CampaignPool(
        max_workers=1, cache=False, resilience=_resilience(chaos)
    )
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    assert pool.last_stats.retries == 2 * len(tiny_configs)


def test_exhausted_retry_budget_raises_the_genuine_error(tiny_configs):
    """When chaos outlives the retry budget the real exception surfaces —
    resilience absorbs transient faults, it does not hide persistent ones."""
    chaos = ChaosPolicy(seed=0, worker_kill_rate=1.0, max_kills_per_config=5)
    retry = RetryPolicy(max_attempts=2, backoff=Backoff(base_s=0.0, jitter=0.0))
    pool = CampaignPool(
        max_workers=1,
        cache=False,
        resilience=ResilienceConfig(retry=retry, chaos=chaos),
    )
    with pytest.raises(WorkerKilled):
        pool.run(tiny_configs[:1])


def test_cache_corruption_quarantines_and_rebuilds(
    tmp_path, tiny_configs, tiny_digests
):
    """Every entry is corrupted on disk before its read; the integrity
    check quarantines them all, the sweep re-simulates, and the returned
    digests never change."""
    chaos = ChaosPolicy(seed=3, cache_corruption_rate=1.0)
    resilience = _resilience(chaos)

    warm = CampaignPool(
        max_workers=1,
        cache=TraceCache(root=tmp_path, enabled=True),
        resilience=_resilience(),
    )
    assert [trace_digest(t) for t in warm.run(tiny_configs)] == tiny_digests

    cache = TraceCache(root=tmp_path, enabled=True)
    pool = CampaignPool(max_workers=1, cache=cache, resilience=resilience)
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    assert cache.quarantined == len(tiny_configs)
    assert cache.hits == 0
    assert pool.last_stats.simulated == len(tiny_configs)
    # Quarantined entries are kept aside for inspection, never served.
    assert len(list(cache.quarantine_dir().iterdir())) == len(tiny_configs)

    # The rebuilt entries are intact: a fault-free third pass is all hits.
    clean = CampaignPool(
        max_workers=1,
        cache=TraceCache(root=tmp_path, enabled=True),
        resilience=_resilience(),
    )
    assert [trace_digest(t) for t in clean.run(tiny_configs)] == tiny_digests
    assert clean.last_stats.cache_hits == len(tiny_configs)


def test_partial_corruption_only_rebuilds_the_victims(
    tmp_path, tiny_configs, tiny_digests
):
    chaos = ChaosPolicy(seed=11, cache_corruption_rate=0.5)
    victims = sum(
        1
        for c in tiny_configs
        if chaos.corruption_mode(config_digest(c)) is not None
    )
    warm = CampaignPool(
        max_workers=1, cache=TraceCache(root=tmp_path, enabled=True)
    )
    warm.run(tiny_configs)

    cache = TraceCache(root=tmp_path, enabled=True)
    pool = CampaignPool(
        max_workers=1, cache=cache, resilience=_resilience(chaos)
    )
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    assert cache.quarantined == victims
    assert cache.hits == len(tiny_configs) - victims


def test_subprocess_kills_broken_executor_respawn(tiny_configs, tiny_digests):
    """The real thing: chaos ``os._exit``s workers mid-seed, the parent
    sees only a broken executor, kills it, respawns, and retries — and the
    sweep still digests identical to fault-free."""
    chaos = ChaosPolicy(seed=0, worker_kill_rate=1.0, max_kills_per_config=1)
    pool = CampaignPool(
        max_workers=2,
        cache=False,
        resilience=ResilienceConfig(
            retry=FAST_RETRY, chaos=chaos, circuit_threshold=10
        ),
    )
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    stats = pool.last_stats
    assert stats.retries >= 1
    assert stats.respawns >= 1


def test_open_breaker_degrades_to_inline(tiny_configs, tiny_digests):
    pool = CampaignPool(max_workers=4, cache=False, resilience=_resilience())
    while not pool.breaker.open:
        pool.breaker.record_failure()
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    assert pool.last_stats.workers == 1  # nothing ran pooled


def test_run_campaigns_options_identical_digests(tiny_configs, tiny_digests):
    """The one-call sweep with RunOptions runs silently and changes
    nothing about the results."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        traces = run_campaigns(
            tiny_configs, RunOptions(workers=1, cache=False)
        )
    assert [trace_digest(t) for t in traces] == tiny_digests
