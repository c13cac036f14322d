"""Socket-level tests: a real BackgroundServer driven by http.client."""

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.live import LiveAnalytics, LiveConfig, replay_trace
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.resilience import Backoff, CircuitBreaker, RetryPolicy
from repro.runtime.cache import TraceCache
from repro.serve import BackgroundServer, ReliabilityService

#: Floor for the mixed-load test: a hand-rolled asyncio loop serving
#: in-memory estimator reads clears this by a wide margin even on one
#: busy core.
MIN_REQUESTS_PER_SEC = 30.0


@pytest.fixture()
def server(service):
    with BackgroundServer(service) as running:
        yield running


def request(server, method, path, payload=None, conn=None):
    own = conn is None
    if conn is None:
        conn = http.client.HTTPConnection(
            server.bound_host, server.bound_port, timeout=30
        )
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    if own:
        conn.close()
    return response, data


def test_ephemeral_port_binds_and_reports(server):
    assert server.bound_port > 0
    assert server.address == f"http://127.0.0.1:{server.bound_port}"
    response, data = request(server, "GET", "/v1/ping")
    assert response.status == 200
    assert json.loads(data)["ok"] is True


def test_metrics_content_type_and_body_match_registry(server):
    request(server, "GET", "/v1/ping")
    response, data = request(server, "GET", "/metrics")
    assert response.status == 200
    assert response.getheader("Content-Type") == PROMETHEUS_CONTENT_TYPE
    text = data.decode("utf-8")
    assert "# TYPE serve_requests_total counter" in text
    # the exposition is the service registry's own rendering
    assert "serve_connections_total" in text


def test_keep_alive_serves_many_requests_per_connection(server):
    conn = http.client.HTTPConnection(
        server.bound_host, server.bound_port, timeout=30
    )
    try:
        for _ in range(5):
            response, data = request(server, "GET", "/v1/health", conn=conn)
            assert response.status == 200
            assert response.getheader("Connection") == "keep-alive"
        # scrape over the SAME connection: all six requests rode one socket
        _, metrics = request(server, "GET", "/metrics", conn=conn)
        assert b"serve_connections_total 1" in metrics
    finally:
        conn.close()


def test_connection_close_is_honored(server):
    conn = http.client.HTTPConnection(
        server.bound_host, server.bound_port, timeout=30
    )
    try:
        conn.request("GET", "/v1/ping", headers={"Connection": "close"})
        response = conn.getresponse()
        response.read()
        assert response.getheader("Connection") == "close"
    finally:
        conn.close()


def test_404_and_405_over_the_wire(server):
    response, _ = request(server, "GET", "/nope")
    assert response.status == 404
    response, _ = request(server, "POST", "/v1/health", payload={})
    assert response.status == 405
    assert response.getheader("Allow") == "GET"


def test_garbage_request_answers_400(service):
    import socket

    with BackgroundServer(service) as server:
        with socket.create_connection(
            (server.bound_host, server.bound_port), timeout=30
        ) as sock:
            sock.sendall(b"TOTAL GARBAGE\r\n\r\n")
            data = sock.recv(65536)
    assert data.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in data


def test_whatif_cache_over_the_wire(warm_analytics):
    calls = []

    def runner(spec):
        calls.append(spec)
        return {"ok": True}

    service = ReliabilityService(
        warm_analytics,
        trace_cache=TraceCache(enabled=False),
        whatif_runner=runner,
    )
    payload = {"n_gpus": 4096}
    with BackgroundServer(service) as server:
        first, body_a = request(
            server, "POST", "/v1/whatif/checkpoint-cadence", payload
        )
        second, body_b = request(
            server, "POST", "/v1/whatif/checkpoint-cadence", payload
        )
    assert first.getheader("X-Repro-Cache") == "miss"
    assert second.getheader("X-Repro-Cache") == "hit"
    assert first.getheader("X-Repro-Config-Digest") == second.getheader(
        "X-Repro-Config-Digest"
    )
    assert body_a == body_b
    assert len(calls) == 1


def test_breaker_degrades_to_503_with_retry_after_over_the_wire(
    warm_analytics,
):
    def runner(spec):
        raise RuntimeError("chaos")

    service = ReliabilityService(
        warm_analytics,
        trace_cache=TraceCache(enabled=False),
        whatif_runner=runner,
        breaker=CircuitBreaker(threshold=1),
        retry=RetryPolicy(max_attempts=1, backoff=Backoff(base_s=0.0)),
        retry_after_s=30.0,
    )
    # a cached entry must survive the breaker opening
    from repro.serve import WhatIfSpec

    cached_payload = {"n_gpus": 512}
    service.whatif_cache.put(
        WhatIfSpec.from_payload(cached_payload).digest(), b'{"cached": true}\n'
    )
    with BackgroundServer(service) as server:
        failed, _ = request(
            server, "POST", "/v1/whatif/checkpoint-cadence", {"n_gpus": 64}
        )
        assert failed.status == 500
        rejected, body = request(
            server, "POST", "/v1/whatif/checkpoint-cadence", {"n_gpus": 128}
        )
        assert rejected.status == 503
        assert rejected.getheader("Retry-After") == "30"
        assert "breaker" in json.loads(body)["error"]
        stale, body = request(
            server, "POST", "/v1/whatif/checkpoint-cadence", cached_payload
        )
        assert stale.status == 200
        assert json.loads(body) == {"cached": True}
        # and /metrics reports the open breaker
        _, metrics = request(server, "GET", "/metrics")
        assert b"serve_breaker_open 1" in metrics


def test_final_snapshot_written_on_stop(service, tmp_path):
    snapshot_path = tmp_path / "final.json"
    with BackgroundServer(service, snapshot_out=str(snapshot_path)) as server:
        response, _ = request(server, "GET", "/v1/health")
        assert response.status == 200
        assert not snapshot_path.exists()
    payload = json.loads(snapshot_path.read_text())
    assert payload["schema"] == 1
    assert payload["watermark"] == service.analytics.watermark
    # no tmp-file litter from the atomic write
    assert list(tmp_path.glob("*.tmp")) == []


def test_concurrent_mixed_load_over_the_wire(paper_rsc1_trace):
    """Eight keep-alive clients x 50 requests against a server warmed on
    the figure-scale trace: reads across /v1/health, /v1/ettr, /v1/mttf
    and /metrics, every fifth request the same what-if.  Every request
    succeeds, the what-ifs cost one simulation (the rest are cache hits
    or joined the in-flight one), and throughput clears the floor."""
    n_clients, per_client = 8, 50
    whatif = json.dumps({"n_gpus": 100_000, "targets": [0.5, 0.9]}).encode()
    reads = ("/v1/health", "/v1/ettr", "/v1/mttf", "/metrics")
    analytics = LiveAnalytics(LiveConfig.for_trace(paper_rsc1_trace))
    replay_trace(paper_rsc1_trace, analytics)
    service = ReliabilityService(
        analytics,
        trace_cache=TraceCache(enabled=False),
        max_concurrent_whatif=4,
    )

    def client(server, client_id):
        conn = http.client.HTTPConnection(
            server.bound_host, server.bound_port, timeout=60
        )
        statuses = []
        try:
            for i in range(per_client):
                if i % 5 == 4:
                    conn.request(
                        "POST", "/v1/whatif/checkpoint-cadence", body=whatif
                    )
                else:
                    conn.request("GET", reads[(client_id + i) % len(reads)])
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            conn.close()
        return statuses

    with BackgroundServer(service) as server:
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            statuses = [
                status
                for run in pool.map(
                    lambda cid: client(server, cid), range(n_clients)
                )
                for status in run
            ]
        wall_s = time.perf_counter() - t0
    assert statuses == [200] * (n_clients * per_client)
    n_whatif = n_clients * per_client // 5
    simulations = service.metrics.counter(
        "serve_whatif_simulations_total"
    ).value
    cache_hits = service.metrics.counter("serve_whatif_cache_hits_total").value
    assert simulations == 1
    # Non-hits are the first miss plus requests that joined the in-flight
    # computation: at most one per client.
    assert n_whatif - n_clients <= cache_hits <= n_whatif - 1
    rps = len(statuses) / wall_s
    assert rps >= MIN_REQUESTS_PER_SEC, rps
