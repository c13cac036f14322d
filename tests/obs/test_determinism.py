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
    assert "span.end" in categories
    assert telemetry.metrics.histogram(
        "sim_event_duration_seconds", label="end"
    ).count > 0
    assert telemetry.metrics.counter(
        "sched_attempts_total", state="COMPLETED"
    ).value > 0


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


def _noop_events_seconds(variants, n_events=100_000, chunk=1_000):
    """This thread's CPU time running ``n_events`` no-op engine events,
    per ``(name, telemetry)`` variant.

    The heaps are filled one event each in turn, and the runs advance
    ``chunk`` events each in turn, so the variants share one allocator
    state and a slow spell of the host lands on both alike.
    """
    engines = {name: Engine(telemetry=tel) for name, tel in variants}
    callback = lambda: None  # noqa: E731 - intentional no-op
    for i in range(n_events):
        for engine in engines.values():
            engine.schedule_at(float(i), callback, label="noop:1")
    seconds = dict.fromkeys(engines, 0.0)
    for end in range(chunk, n_events + 1, chunk):
        for name, engine in engines.items():
            t0 = time.thread_time()
            engine.run_until(float(end - 1))
            seconds[name] += time.thread_time() - t0
    for engine in engines.values():
        assert engine.executed_events == n_events
    return seconds


def test_disabled_telemetry_stays_inside_the_overhead_budget():
    """The engine's untraced hot path must not pay for instrumentation
    that is wired in but switched off.

    Each round reads the thread's CPU clock, so another process on the
    host is not counted.  How fast a round runs depends on where the
    allocator placed its 100k events, which drifts from round to round,
    and on what else the host runs, so both variants of a round share
    one interleaved fill and run interleaved, and they swap order every
    round; the best of five rounds is compared.
    """
    disabled = Telemetry.disabled()
    best = {"none": float("inf"), "disabled": float("inf")}
    variants = [("none", None), ("disabled", disabled)]
    for _ in range(5):
        for name, seconds in _noop_events_seconds(variants).items():
            best[name] = min(best[name], seconds)
        variants.reverse()
    none_s, disabled_s = best["none"], best["disabled"]
    assert disabled.tracer.events_emitted == 0
    assert disabled_s <= none_s * OVERHEAD_BUDGET, (disabled_s, none_s)
