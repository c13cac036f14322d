"""Endpoint-layer tests: dispatch, caching, single-flight, degradation."""

import asyncio
import json

import pytest

from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.resilience import Backoff, RetryPolicy
from repro.runtime.cache import TraceCache
from repro.serve import (
    SERVE_SCHEMA_VERSION,
    ReliabilityService,
    Request,
    WhatIfSpec,
)


def get(service, path, query=None):
    request = Request("GET", path, path, dict(query or {}), {})
    return asyncio.run(service.dispatch(request))


def post_json(service, path, payload):
    body = json.dumps(payload).encode()
    request = Request("POST", path, path, {}, {}, body=body)
    return asyncio.run(service.dispatch(request))


def body_of(response):
    return json.loads(response.body.decode("utf-8"))


def counter_value(service, name, **labels):
    return service.metrics.counter(name, **labels).value


# ----------------------------------------------------------------------
# read-only endpoints
# ----------------------------------------------------------------------
def test_ping(service):
    response = get(service, "/v1/ping")
    assert response.status == 200
    assert body_of(response) == {"ok": True, "schema": SERVE_SCHEMA_VERSION}


def test_health_reports_score_and_attribution(service):
    doc = body_of(get(service, "/v1/health"))
    assert doc["schema"] == SERVE_SCHEMA_VERSION
    assert 0 <= doc["score"] <= 100
    assert isinstance(doc["healthy"], bool)
    assert isinstance(doc["messages"], list)
    assert doc["cluster"] == service.analytics.config.cluster_name
    assert service.metrics.gauge("serve_health_score").value == doc["score"]


def test_ettr_comparison_and_forecast(service):
    doc = body_of(get(service, "/v1/ettr"))
    assert doc["rf_per_1k_node_days"] > 0
    assert isinstance(doc["comparison"], list)
    doc = body_of(
        get(service, "/v1/ettr", {"gpus": "4096", "runtime_hours": "48"})
    )
    forecast = doc["forecast"]
    assert forecast["gpus"] == 4096
    assert 0 < forecast["ettr"] <= 1
    assert forecast["equation"] == "eq1"


def test_ettr_forecast_rejects_tiny_jobs(service):
    response = get(service, "/v1/ettr", {"gpus": "2"})
    assert response.status == 400


def test_mttf_buckets(service):
    doc = body_of(get(service, "/v1/mttf"))
    assert doc["n_records"] > 0
    assert doc["buckets"], "warm session must have MTTF buckets"
    for bucket in doc["buckets"]:
        assert set(bucket) >= {"gpus", "failures", "mttf_hours"}


def test_lemons_shape(service):
    doc = body_of(get(service, "/v1/lemons"))
    assert "suspects" in doc and "scores" in doc and "signals" in doc


def test_snapshot_roundtrips(service):
    from repro.live import LiveAnalytics

    doc = body_of(get(service, "/v1/snapshot"))
    restored = LiveAnalytics.from_snapshot(doc)
    assert restored.watermark == service.analytics.watermark


def test_metrics_endpoint_prometheus(service):
    get(service, "/v1/ping")
    response = get(service, "/metrics")
    assert response.status == 200
    assert response.content_type == PROMETHEUS_CONTENT_TYPE
    text = response.body.decode()
    assert "serve_requests_total" in text
    assert "serve_request_seconds" in text
    assert "serve_whatif_cache_entries" in text
    assert "serve_breaker_open 0" in text


def test_unknown_path_404_and_wrong_method_405(service):
    assert get(service, "/nope").status == 404
    response = post_json(service, "/v1/health", {})
    assert response.status == 405
    assert ("Allow", "GET") in response.headers


def test_unknown_endpoint_metrics_label_is_bounded(service):
    get(service, "/some/random/path-1")
    get(service, "/some/random/path-2")
    assert (
        counter_value(
            service, "serve_requests_total", endpoint="unknown", status="404"
        )
        == 2
    )


# ----------------------------------------------------------------------
# what-if: validation
# ----------------------------------------------------------------------
def test_whatif_rejects_unknown_fields(service):
    response = post_json(
        service, "/v1/whatif/checkpoint-cadence", {"n_gpu": 10}
    )
    assert response.status == 400
    assert "unknown whatif field" in body_of(response)["error"]


def test_whatif_rejects_bad_values(service):
    for payload in (
        {"n_gpus": 2},
        {"failure_rates_per_1k": [-1.0]},
        {"intervals_minutes": []},
        {"targets": [1.5]},
        {"campaign": {"cluster": "rsc9"}},
        {"campaign": {"nodes": 0}},
        [1, 2, 3],
    ):
        response = post_json(
            service, "/v1/whatif/checkpoint-cadence", payload
        )
        assert response.status == 400, payload


def test_whatif_requires_json_body(service):
    request = Request(
        "POST",
        "/v1/whatif/checkpoint-cadence",
        "/v1/whatif/checkpoint-cadence",
        {},
        {},
        body=b"",
    )
    assert asyncio.run(service.dispatch(request)).status == 400


def test_whatif_defaults_to_paper_rates():
    spec = WhatIfSpec.from_payload({})
    assert spec.failure_rates_per_1k == (6.5, 2.34)


# ----------------------------------------------------------------------
# what-if: analytic results
# ----------------------------------------------------------------------
def test_whatif_analytic_rows(service):
    doc = body_of(
        post_json(
            service,
            "/v1/whatif/checkpoint-cadence",
            {"n_gpus": 100_000, "targets": [0.9]},
        )
    )
    assert doc["campaign"] is None
    assert len(doc["rows"]) == 2  # the two paper rates
    row = doc["rows"][0]
    ettrs = row["expected_ettr_by_interval_minutes"]
    # shorter cadence -> higher expected ETTR, always a valid fraction
    values = [ettrs[k] for k in ("2", "60")]
    assert 0 <= values[1] < values[0] <= 1
    assert "0.9" in row["required_interval_minutes_for_target_ettr"]


# ----------------------------------------------------------------------
# what-if: caching and single-flight
# ----------------------------------------------------------------------
def counting_service(warm_analytics, **kwargs):
    calls = []

    def runner(spec):
        calls.append(spec)
        return {"result": spec.n_gpus, "calls": len(calls)}

    service = ReliabilityService(
        warm_analytics,
        trace_cache=TraceCache(enabled=False),
        whatif_runner=runner,
        **kwargs,
    )
    return service, calls


def test_identical_payloads_one_simulation_bit_identical(warm_analytics):
    service, calls = counting_service(warm_analytics)
    payload = {"n_gpus": 4096, "targets": [0.5, 0.9]}
    bodies = set()
    statuses = []
    for _ in range(5):
        response = post_json(
            service, "/v1/whatif/checkpoint-cadence", payload
        )
        statuses.append(response.status)
        bodies.add(bytes(response.body))
    assert statuses == [200] * 5
    assert len(calls) == 1, "identical payloads must cost one simulation"
    assert len(bodies) == 1, "cached responses must be bit-identical"
    assert counter_value(service, "serve_whatif_cache_hits_total") == 4
    assert counter_value(service, "serve_whatif_simulations_total") == 1


def test_differing_payloads_miss(warm_analytics):
    service, calls = counting_service(warm_analytics)
    post_json(service, "/v1/whatif/checkpoint-cadence", {"n_gpus": 1024})
    post_json(service, "/v1/whatif/checkpoint-cadence", {"n_gpus": 2048})
    assert len(calls) == 2


def test_concurrent_identical_queries_single_flight(warm_analytics):
    import threading

    started = threading.Event()
    release = threading.Event()
    calls = []

    def slow_runner(spec):
        calls.append(spec)
        started.set()
        assert release.wait(timeout=30)
        return {"ok": True}

    service = ReliabilityService(
        warm_analytics,
        trace_cache=TraceCache(enabled=False),
        whatif_runner=slow_runner,
        max_concurrent_whatif=4,
    )

    async def run():
        body = json.dumps({"n_gpus": 512}).encode()
        requests = [
            Request(
                "POST",
                "/v1/whatif/checkpoint-cadence",
                "/v1/whatif/checkpoint-cadence",
                {},
                {},
                body=body,
            )
            for _ in range(6)
        ]
        tasks = [
            asyncio.ensure_future(service.dispatch(r)) for r in requests
        ]
        await asyncio.get_running_loop().run_in_executor(None, started.wait)
        release.set()
        return await asyncio.gather(*tasks)

    responses = asyncio.run(run())
    assert [r.status for r in responses] == [200] * 6
    assert len({bytes(r.body) for r in responses}) == 1
    assert len(calls) == 1, "concurrent identical queries must single-flight"


def test_lru_bound_evicts_and_recomputes(warm_analytics):
    service, calls = counting_service(warm_analytics, whatif_cache_size=1)
    a = {"n_gpus": 1024}
    b = {"n_gpus": 2048}
    post_json(service, "/v1/whatif/checkpoint-cadence", a)  # compute a
    post_json(service, "/v1/whatif/checkpoint-cadence", b)  # evicts a
    post_json(service, "/v1/whatif/checkpoint-cadence", a)  # recompute
    assert len(calls) == 3
    assert service.whatif_cache.evictions == 2


# ----------------------------------------------------------------------
# degradation: breaker and overload
# ----------------------------------------------------------------------
def failing_service(warm_analytics):
    def runner(spec):
        raise RuntimeError("chaos")

    return ReliabilityService(
        warm_analytics,
        trace_cache=TraceCache(enabled=False),
        whatif_runner=runner,
        retry=RetryPolicy(max_attempts=1, backoff=Backoff(base_s=0.0)),
    )


def trip(service):
    """Fail distinct what-ifs until the breaker opens (three failures)."""
    for i in range(service.breaker.threshold):
        failed = post_json(
            service, "/v1/whatif/checkpoint-cadence", {"n_gpus": 100 * (i + 1)}
        )
        assert failed.status == 500
    assert service.breaker.open


def test_breaker_opens_to_503_with_retry_after(warm_analytics):
    service = failing_service(warm_analytics)
    trip(service)
    rejected = post_json(
        service, "/v1/whatif/checkpoint-cadence", {"n_gpus": 4000}
    )
    assert rejected.status == 503
    assert ("Retry-After", "30") in rejected.headers
    assert counter_value(service, "serve_breaker_rejections_total") == 1


def test_breaker_open_still_serves_cached(warm_analytics):
    service = failing_service(warm_analytics)
    payload = {"n_gpus": 4096}
    # seed the cache before tripping the breaker
    service.whatif_cache.put(
        WhatIfSpec.from_payload(payload).digest(), b'{"cached": true}\n'
    )
    trip(service)
    response = post_json(service, "/v1/whatif/checkpoint-cadence", payload)
    assert response.status == 200
    assert response.body == b'{"cached": true}\n'
    assert ("X-Repro-Cache", "hit") in response.headers


def test_retry_policy_retries_then_succeeds(warm_analytics):
    attempts = []

    def flaky(spec):
        attempts.append(spec)
        if len(attempts) == 1:
            raise RuntimeError("transient")
        return {"ok": True}

    service = ReliabilityService(
        warm_analytics,
        trace_cache=TraceCache(enabled=False),
        whatif_runner=flaky,
        retry=RetryPolicy(max_attempts=2, backoff=Backoff(base_s=0.0)),
    )
    response = post_json(
        service, "/v1/whatif/checkpoint-cadence", {"n_gpus": 256}
    )
    assert response.status == 200
    assert len(attempts) == 2
    assert counter_value(service, "serve_whatif_retries_total") == 1
    assert not service.breaker.open


def test_overload_rejects_before_queueing(warm_analytics):
    import threading

    started = threading.Event()
    release = threading.Event()

    def slow_runner(spec):
        started.set()
        assert release.wait(timeout=30)
        return {"ok": True}

    service = ReliabilityService(
        warm_analytics,
        trace_cache=TraceCache(enabled=False),
        whatif_runner=slow_runner,
        max_concurrent_whatif=1,
    )

    async def run():
        slow = Request(
            "POST",
            "/v1/whatif/checkpoint-cadence",
            "/v1/whatif/checkpoint-cadence",
            {},
            {},
            body=json.dumps({"n_gpus": 64}).encode(),
        )
        task = asyncio.ensure_future(service.dispatch(slow))
        await asyncio.get_running_loop().run_in_executor(None, started.wait)
        overflow = Request(
            "POST",
            "/v1/whatif/checkpoint-cadence",
            "/v1/whatif/checkpoint-cadence",
            {},
            {},
            body=json.dumps({"n_gpus": 128}).encode(),
        )
        rejected = await service.dispatch(overflow)
        release.set()
        first = await task
        return first, rejected

    first, rejected = asyncio.run(run())
    assert first.status == 200
    assert rejected.status == 503
    assert ("Retry-After", "30") in rejected.headers
    assert counter_value(service, "serve_overload_rejections_total") == 1


def test_failed_whatif_is_not_cached(warm_analytics):
    service = failing_service(warm_analytics)
    payload = {"n_gpus": 640}
    assert (
        post_json(service, "/v1/whatif/checkpoint-cadence", payload).status
        == 500
    )
    assert len(service.whatif_cache) == 0
    assert WhatIfSpec.from_payload(payload).digest() not in service.whatif_cache


# ----------------------------------------------------------------------
# what-if: campaign-backed queries through the trace cache
# ----------------------------------------------------------------------
def test_campaign_whatif_layers_on_trace_cache(warm_analytics, tmp_path):
    trace_cache = TraceCache(root=tmp_path, enabled=True)
    service = ReliabilityService(
        warm_analytics,
        trace_cache=trace_cache,
        whatif_cache_size=1,
    )
    payload = {
        "campaign": {"cluster": "rsc1", "nodes": 4, "days": 1, "seed": 3},
        "n_gpus": 1024,
    }
    other = {"n_gpus": 2048}
    first = post_json(service, "/v1/whatif/checkpoint-cadence", payload)
    assert first.status == 200, first.body
    doc = body_of(first)
    assert doc["campaign"]["config_digest"]
    assert doc["campaign"]["rf_node_days"] > 0
    assert trace_cache.stats()["writes"] == 1
    # evict the rendered response, then re-ask: the response layer
    # recomputes but the simulation itself is a trace-cache *hit*.
    post_json(service, "/v1/whatif/checkpoint-cadence", other)
    again = post_json(service, "/v1/whatif/checkpoint-cadence", payload)
    assert again.status == 200
    assert trace_cache.stats()["hits"] >= 1
    assert bytes(again.body) == bytes(first.body)
