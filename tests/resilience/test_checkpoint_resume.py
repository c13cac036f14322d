"""Crash-safe sweeps: kill at any point, resume bit-identically.

The trace cache is the resume point.  An "interrupted" sweep is modeled
by a cache holding only a prefix of the configs — exactly the on-disk
state a SIGKILL mid-sweep leaves behind, since entries are written
atomically — and resuming is just running the full sweep again against
the same directory.
"""

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions, run_campaign
from repro.runtime import (
    CampaignPool,
    TraceCache,
    seed_sweep_configs,
    trace_digest,
)


@pytest.fixture(scope="module")
def sweep_configs():
    spec = ClusterSpec.rsc1_like(n_nodes=8, campaign_days=2)
    base = CampaignConfig(cluster_spec=spec, duration_days=2)
    return seed_sweep_configs(base, range(4))


@pytest.fixture(scope="module")
def sweep_digests(sweep_configs):
    traces = CampaignPool(options=RunOptions(workers=1, cache=False)).run(
        sweep_configs
    )
    return [trace_digest(t) for t in traces]


def _interrupt_after(directory, configs, completed: int) -> TraceCache:
    """Produce the cache state a sweep killed after ``completed``
    configs leaves on disk."""
    cache = TraceCache(directory, enabled=True)
    for config in configs[:completed]:
        cache.put(config, run_campaign(config))
    return cache


def _resume(directory, configs):
    pool = CampaignPool(
        options=RunOptions(
            workers=1, cache=TraceCache(directory, enabled=True)
        )
    )
    return pool, pool.run(configs)


@pytest.mark.parametrize("completed", [1, 2, 3])  # ≈25%, 50%, 75–90%
def test_resume_is_bit_identical(tmp_path, sweep_configs, sweep_digests, completed):
    _interrupt_after(tmp_path, sweep_configs, completed)

    pool, traces = _resume(tmp_path, sweep_configs)
    assert [trace_digest(t) for t in traces] == sweep_digests
    assert pool.last_stats.cache_hits == completed
    assert pool.last_stats.simulated == len(sweep_configs) - completed
    # Resumed traces are labeled, so provenance is auditable...
    sources = [t.metadata["runtime"]["source"] for t in traces]
    assert sources[:completed] == ["cache"] * completed
    # ...but the label lives in runtime metadata, outside the digest.


def test_completed_checkpoint_resumes_everything(
    tmp_path, sweep_configs, sweep_digests
):
    _interrupt_after(tmp_path, sweep_configs, len(sweep_configs))
    pool, traces = _resume(tmp_path, sweep_configs)
    assert [trace_digest(t) for t in traces] == sweep_digests
    assert pool.last_stats.simulated == 0
    assert pool.last_stats.cache_hits == len(sweep_configs)


def test_overlapping_sweeps_share_a_directory(
    tmp_path, sweep_configs, sweep_digests
):
    """Entries are keyed by the full config digest, so a directory two
    sweeps share can only ever serve a config its own trace: sweep B,
    overlapping sweep A by two configs, digests equal to a cache-off run
    of B."""
    sweep_a = sweep_configs[:3]
    sweep_b = sweep_configs[1:] + seed_sweep_configs(sweep_configs[0], [100])
    _resume(tmp_path, sweep_a)

    pool, traces = _resume(tmp_path, sweep_b)
    cold = CampaignPool(options=RunOptions(workers=1, cache=False)).run(
        sweep_b
    )
    assert [trace_digest(t) for t in traces] == [
        trace_digest(t) for t in cold
    ]
    assert [trace_digest(t) for t in traces[:3]] == sweep_digests[1:]
    assert pool.last_stats.cache_hits == 2
    assert pool.last_stats.simulated == 2


def test_torn_partial_result_resimulates(
    tmp_path, sweep_configs, sweep_digests
):
    """A torn entry must re-simulate that config, not serve garbage:
    the digest-verified cache quarantines it and reads it as a miss."""
    cache = _interrupt_after(tmp_path, sweep_configs, 2)
    victim = cache.path_for(sweep_configs[0])
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])

    pool, traces = _resume(tmp_path, sweep_configs)
    assert [trace_digest(t) for t in traces] == sweep_digests
    assert pool.last_stats.cache_hits == 1  # only the intact entry
    assert pool.last_stats.simulated == len(sweep_configs) - 1
    assert pool.cache.quarantined == 1
