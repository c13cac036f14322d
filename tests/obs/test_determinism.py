"""Telemetry must observe, never perturb.

The contract: an instrumented campaign produces a byte-identical trace
(modulo the wall-clock ``runtime`` metadata block, which is timing and
can never be deterministic) and identical cache behavior, because the
tracer and registry never touch an RNG stream or simulation state.
"""

import json
import time

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions, run_campaign
from repro.obs import Telemetry
from repro.runtime import TraceCache, config_digest, trace_digest
from repro.sim.engine import Engine

#: Disabled-telemetry slowdown budget on a no-op engine microbench.  The
#: real cost is ~5%; the margin absorbs timer noise on loaded machines.
OVERHEAD_BUDGET = 1.25


@pytest.fixture(scope="module")
def config():
    spec = ClusterSpec.rsc1_like(n_nodes=16, campaign_days=6)
    return CampaignConfig(cluster_spec=spec, duration_days=6, seed=11)


@pytest.fixture(scope="module")
def plain_trace(config):
    return run_campaign(config)


@pytest.fixture(scope="module")
def instrumented(config):
    telemetry = Telemetry.in_memory()
    trace = run_campaign(config, RunOptions(telemetry=telemetry))
    return trace, telemetry


def _comparable_dict(trace):
    payload = trace.to_dict()
    payload["header"]["metadata"].pop("runtime", None)
    return payload


def test_instrumentation_actually_ran(instrumented):
    _trace, telemetry = instrumented
    assert telemetry.tracer.events_emitted > 100
    categories = {e.category for e in telemetry.events()}
    assert "sim.execute" in categories
    assert "sched.finish" in categories
    assert len(telemetry.metrics) > 0


def test_trace_to_dict_byte_identical(plain_trace, instrumented):
    traced, _ = instrumented
    plain = json.dumps(_comparable_dict(plain_trace), sort_keys=True)
    inst = json.dumps(_comparable_dict(traced), sort_keys=True)
    assert plain == inst


def test_trace_digests_identical(plain_trace, instrumented):
    traced, _ = instrumented
    assert trace_digest(plain_trace) == trace_digest(traced)


def test_config_digest_ignores_telemetry(config):
    # Telemetry is not a config field, so the cache key cannot depend on
    # whether a run was instrumented.
    assert config_digest(config) == config_digest(config)


def test_cache_round_trip_across_instrumentation(config, instrumented, tmp_path):
    """A trace simulated under telemetry serves uninstrumented cache hits."""
    traced, _ = instrumented
    cache = TraceCache(root=tmp_path, enabled=True)
    cache.put(config, traced)
    loaded = cache.get(config)
    assert loaded is not None
    assert cache.stats()["hits"] == 1
    assert trace_digest(loaded) == trace_digest(traced)


def test_disabled_telemetry_bundle_is_inert(config, plain_trace):
    telemetry = Telemetry.disabled()
    trace = run_campaign(config, RunOptions(telemetry=telemetry))
    assert telemetry.tracer.events_emitted == 0
    assert trace_digest(trace) == trace_digest(plain_trace)


def _noop_events_best_of(telemetry, n_events=100_000, best_of=5) -> float:
    """Best-of-N wall time for ``n_events`` no-op engine events."""
    best = float("inf")
    for _ in range(best_of):
        engine = Engine(telemetry=telemetry)
        callback = lambda: None  # noqa: E731 - intentional no-op
        for i in range(n_events):
            engine.schedule_at(float(i), callback, label="noop:1")
        t0 = time.perf_counter()
        engine.run_until(float(n_events))
        best = min(best, time.perf_counter() - t0)
        assert engine.executed_events == n_events
    return best


def test_disabled_telemetry_stays_inside_the_overhead_budget():
    """The engine's untraced hot path must not pay for instrumentation
    that is wired in but switched off."""
    none_s = _noop_events_best_of(None)
    disabled = Telemetry.disabled()
    disabled_s = _noop_events_best_of(disabled)
    assert disabled.tracer.events_emitted == 0
    assert disabled_s <= none_s * OVERHEAD_BUDGET, (disabled_s, none_s)
