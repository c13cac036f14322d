"""Backend parity: the same RunOptions produce bit-identical traces on
every backend — fault-free, under chaos, and across a mid-sweep
backend switch.

This is the PR's acceptance criterion and the paper's framing applied
to our own execution layer: *where* work runs (and how often it dies)
must never leak into *what* it computes.
"""

import pytest

from repro import (
    CampaignPool,
    ChaosPolicy,
    ResilienceConfig,
    RunOptions,
    run_campaign,
)
from repro.resilience import Backoff, RetryPolicy
from repro.runtime import TraceCache, trace_digest

ALL_BACKENDS = ["inline", "local-pool", "work-queue"]

EXECUTOR_LABELS = {
    "inline": "inline",
    "local-pool": "process",
    "work-queue": "work-queue",
}


def _options(backend, **extra):
    extra.setdefault("cache", False)
    return RunOptions(backend=backend, workers=2, **extra)


def _chaos_resilience():
    return ResilienceConfig(
        retry=RetryPolicy(
            max_attempts=4,
            timeout_s=60.0,
            backoff=Backoff(base_s=0.01, max_s=0.05),
        ),
        chaos=ChaosPolicy(seed=7, worker_kill_rate=0.6, max_kills_per_config=2),
    )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fault_free_digest_parity(backend, tiny_configs, tiny_digests):
    pool = CampaignPool(options=_options(backend))
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    assert pool.last_stats.backend == backend
    assert pool.last_stats.simulated == len(tiny_configs)
    executors = {t.metadata["runtime"]["executor"] for t in traces}
    assert executors == {EXECUTOR_LABELS[backend]}


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_chaos_digest_parity(backend, tiny_configs, tiny_digests):
    """Deterministic worker-kill chaos: every backend absorbs the same
    fault schedule and still produces the reference digests."""
    pool = CampaignPool(
        options=_options(backend, resilience=_chaos_resilience())
    )
    traces = pool.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    recovered = pool.last_stats.retries + pool.last_stats.respawns
    assert recovered >= 1  # chaos at 60% kill rate definitely fired
    if backend != "inline":
        # Subprocess backends lose real workers to os._exit(137) and
        # must respawn; inline absorbs the kill as an in-place retry.
        assert pool.last_stats.respawns >= 1


@pytest.mark.parametrize(
    "first,second",
    [("local-pool", "work-queue"), ("work-queue", "inline")],
)
def test_kill_at_half_then_resume_on_a_different_backend(
    tmp_path, tiny_configs, tiny_digests, first, second
):
    """A sweep killed at 50% on one backend finishes on another,
    bit-identically — the cache, not the backend, is the unit of
    progress."""
    half = len(tiny_configs) // 2
    # The on-disk state a SIGKILL at 50% leaves behind: a cache holding
    # traces the *first* backend produced for the first half.
    pool_a = CampaignPool(
        options=_options(first, cache=TraceCache(tmp_path, enabled=True))
    )
    half_traces = pool_a.run(tiny_configs[:half])
    assert [trace_digest(t) for t in half_traces] == tiny_digests[:half]

    pool_b = CampaignPool(
        options=_options(second, cache=TraceCache(tmp_path, enabled=True))
    )
    traces = pool_b.run(tiny_configs)
    assert [trace_digest(t) for t in traces] == tiny_digests
    assert pool_b.last_stats.cache_hits == half
    assert pool_b.last_stats.simulated == len(tiny_configs) - half
    sources = [t.metadata["runtime"]["source"] for t in traces]
    assert sources[:half] == ["cache"] * half


def test_run_campaign_reference_matches_pool_digests(tiny_configs, tiny_digests):
    """Anchor the fixtures themselves: the serial one-call API agrees
    with the pooled reference digests."""
    assert trace_digest(run_campaign(tiny_configs[0])) == tiny_digests[0]
