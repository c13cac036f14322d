"""`ReliabilityService`: the endpoint layer over the live estimators.

One service instance wraps one warm :class:`repro.live.LiveAnalytics`
session (restored from a snapshot, replayed from a trace, or tapped off
a fresh simulation) and answers the reliability questions the paper
computes offline:

=========================================  =====================================
``GET /v1/health``                         fleet health score + attributed
                                           messages (``FleetHealthScorer``)
``GET /v1/ettr``                           measured-vs-expected ETTR rows and
                                           an Eq. 1/2 forecast for one run
``GET /v1/mttf``                           per-size MTTF buckets + r_f
``GET /v1/lemons``                         per-node lemon scores and signals
``GET /v1/snapshot``                       the versioned LiveAnalytics snapshot
``GET /metrics``                           Prometheus text exposition
``POST /v1/whatif/checkpoint-cadence``     Fig. 10 as an interactive query,
                                           optionally simulating a campaign
``GET /v1/ping``                           liveness probe
=========================================  =====================================

What-if queries are keyed by the SHA-256 of their canonicalized payload
(``config_digest`` discipline) into a bounded-LRU
:class:`~repro.serve.cache.ResponseCache`, layered on the
content-addressed :class:`~repro.runtime.TraceCache` — a million
identical queries cost one simulation, and concurrent identical queries
collapse onto a single in-flight computation (single-flight).

The four analytics reads (health, ETTR, MTTF, lemons) are memoized per
session state: a rendered 200 body is kept, keyed by path and query,
until the session's ``LiveAnalytics.version`` or another input the
documents read changes, so a dashboard polling an unchanged session
costs a dict lookup per read.

Degradation is explicit: simulation failures feed the resilience
layer's :class:`~repro.resilience.CircuitBreaker`; once open, uncached
what-if queries get ``503 + Retry-After`` while cached responses (pure
functions of the request) keep serving.  More in-flight what-if
computations than ``max_concurrent_whatif`` is overload: also
``503 + Retry-After``, before any work is queued.

Every request is measured: a ``serve.request`` span (when telemetry is
enabled) plus per-endpoint latency histograms and request counters in
the service's :class:`~repro.obs.metrics.MetricsRegistry` — which is
exactly what ``/metrics`` exports.
"""

import asyncio
import logging
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.obs.health import tracer_self_disabled
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.spans import maybe_span
from repro.obs.telemetry import Telemetry
from repro.options import RunOptions
from repro.resilience import Backoff, CircuitBreaker, RetryPolicy
from repro.runtime.cache import TraceCache
from repro.serve.cache import ResponseCache, payload_digest
from repro.serve.http11 import (
    HttpError,
    Request,
    Response,
    canonical_json,
)
from repro.sim.timeunits import DAY, HOUR, MINUTE

logger = logging.getLogger("repro.serve")

#: Bump when any endpoint's response document shape changes.
SERVE_SCHEMA_VERSION = 1

_WHATIF_KEYS = frozenset(
    {
        "n_gpus",
        "failure_rates_per_1k",
        "intervals_minutes",
        "targets",
        "restart_overhead_minutes",
        "campaign",
    }
)
_CAMPAIGN_KEYS = frozenset({"cluster", "nodes", "days", "seed"})

#: Rendered reads kept per session state: one per path and query
#: (``/v1/ettr?gpus=...``, ``/v1/mttf?min_records=...``), least recently
#: used first out.
READ_MEMO_ENTRIES = 64


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HttpError(400, message)


@dataclass(frozen=True)
class WhatIfCampaign:
    """The on-demand campaign block of a what-if payload."""

    cluster: str
    nodes: int
    days: float
    seed: int = 0

    @classmethod
    def from_payload(cls, payload: Any) -> "WhatIfCampaign":
        _require(
            isinstance(payload, dict), "whatif 'campaign' must be an object"
        )
        unknown = set(payload) - _CAMPAIGN_KEYS
        _require(
            not unknown,
            f"unknown campaign field(s): {', '.join(sorted(unknown))}",
        )
        cluster = payload.get("cluster", "rsc1")
        _require(
            cluster in ("rsc1", "rsc2"),
            f"campaign cluster must be 'rsc1' or 'rsc2', got {cluster!r}",
        )
        try:
            nodes = int(payload.get("nodes", 16))
            days = float(payload.get("days", 5.0))
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError):
            raise HttpError(
                400, "campaign nodes/days/seed must be numeric"
            ) from None
        _require(1 <= nodes <= 4096, "campaign nodes must be in [1, 4096]")
        _require(0 < days <= 366, "campaign days must be in (0, 366]")
        return cls(cluster=cluster, nodes=nodes, days=days, seed=seed)

    def to_config(self):
        """The fully-resolved CampaignConfig this block names."""
        from repro import CampaignConfig, ClusterSpec

        if self.cluster == "rsc2":
            spec = ClusterSpec.rsc2_like(
                n_nodes=self.nodes, campaign_days=self.days
            )
        else:
            spec = ClusterSpec.rsc1_like(
                n_nodes=self.nodes, campaign_days=self.days
            )
        return CampaignConfig(
            cluster_spec=spec, duration_days=self.days, seed=self.seed
        )


@dataclass(frozen=True)
class WhatIfSpec:
    """A validated, canonical checkpoint-cadence what-if query.

    Being a frozen dataclass of plain tuples, the spec canonicalizes
    stably through :func:`~repro.serve.cache.payload_digest`; any field
    difference (a different seed, one more interval) produces a
    different digest and therefore a cache miss.
    """

    n_gpus: int = 100_000
    failure_rates_per_1k: Tuple[float, ...] = ()
    intervals_minutes: Tuple[float, ...] = (2, 5, 7, 10, 21, 30, 60)
    targets: Tuple[float, ...] = (0.5, 0.9)
    restart_overhead_minutes: float = 5.0
    campaign: Optional[WhatIfCampaign] = None

    @classmethod
    def from_payload(cls, payload: Any) -> "WhatIfSpec":
        _require(isinstance(payload, dict), "whatif payload must be an object")
        unknown = set(payload) - _WHATIF_KEYS
        _require(
            not unknown,
            f"unknown whatif field(s): {', '.join(sorted(unknown))}",
        )
        campaign = None
        if payload.get("campaign") is not None:
            campaign = WhatIfCampaign.from_payload(payload["campaign"])
        try:
            n_gpus = int(payload.get("n_gpus", 100_000))
            rates = tuple(
                float(r) for r in payload.get("failure_rates_per_1k", ())
            )
            intervals = tuple(
                float(m)
                for m in payload.get(
                    "intervals_minutes", cls.intervals_minutes
                )
            )
            targets = tuple(float(t) for t in payload.get("targets", cls.targets))
            restart = float(payload.get("restart_overhead_minutes", 5.0))
        except (TypeError, ValueError):
            raise HttpError(400, "whatif fields must be numeric") from None
        _require(n_gpus >= 8, "n_gpus must be >= 8")
        _require(
            all(r > 0 for r in rates),
            "failure_rates_per_1k must be positive",
        )
        _require(len(rates) <= 16, "at most 16 failure rates per query")
        _require(
            bool(intervals) and all(m > 0 for m in intervals),
            "intervals_minutes must be positive and non-empty",
        )
        _require(len(intervals) <= 64, "at most 64 intervals per query")
        _require(
            all(0 < t < 1 for t in targets),
            "targets must be ETTR fractions in (0, 1)",
        )
        _require(restart >= 0, "restart_overhead_minutes must be >= 0")
        if campaign is None and not rates:
            # The paper's two measured cluster rates (Fig. 10's axes).
            rates = (6.5, 2.34)
        return cls(
            n_gpus=n_gpus,
            failure_rates_per_1k=rates,
            intervals_minutes=intervals,
            targets=targets,
            restart_overhead_minutes=restart,
            campaign=campaign,
        )

    def digest(self) -> str:
        return payload_digest(self)


class ReliabilityService:
    """Routes + handlers + caching + degradation over one live session."""

    #: Seconds a 503 (open breaker, overload) asks the client to wait.
    RETRY_AFTER_S = 30.0

    def __init__(
        self,
        analytics,
        telemetry: Optional[Telemetry] = None,
        trace_cache: Optional[TraceCache] = None,
        whatif_cache_size: int = 256,
        max_concurrent_whatif: int = 2,
        retry: Optional[RetryPolicy] = None,
        whatif_runner: Optional[Callable[[WhatIfSpec], Dict[str, Any]]] = None,
        run_options=None,
    ):
        if max_concurrent_whatif < 1:
            raise ValueError("max_concurrent_whatif must be >= 1")
        self.analytics = analytics
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        #: The registry behind ``/metrics``; always live (the registry
        #: never perturbs simulation state), even when the tracer is off.
        self.metrics = self.telemetry.metrics
        self.trace_cache = trace_cache if trace_cache is not None else TraceCache()
        self.whatif_cache = ResponseCache(whatif_cache_size)
        self.max_concurrent_whatif = int(max_concurrent_whatif)
        self.breaker = CircuitBreaker()
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(
                max_attempts=2, backoff=Backoff(base_s=0.05, max_s=0.5)
            )
        )
        #: Injectable what-if computation (tests and chaos drills swap in
        #: failing or counting runners); the retry/breaker/caching
        #: plumbing around it is identical either way.
        self.whatif_runner = (
            whatif_runner if whatif_runner is not None else self._compute_whatif
        )
        #: Optional repro.RunOptions selecting how what-if campaigns
        #: execute (notably ``backend=``/``backend_options=`` — a serve
        #: deployment can dispatch simulations to a shared work queue
        #: instead of its own process).  ``None`` runs them inline.
        self.run_options = run_options
        #: digest -> in-flight Task; concurrent identical queries await
        #: the same computation (single-flight).
        self._inflight: Dict[str, "asyncio.Task"] = {}
        #: (path, sorted query) -> rendered 200 body, valid for the
        #: session state ``_read_memo_state`` was taken at.
        self._read_memo = ResponseCache(READ_MEMO_ENTRIES)
        self._read_memo_state: Optional[tuple] = None
        self._routes: Dict[Tuple[str, str], Callable[[Request], Any]] = {
            ("GET", "/v1/ping"): self._ping,
            ("GET", "/v1/health"): self._memoized(self._health),
            ("GET", "/v1/ettr"): self._memoized(self._ettr),
            ("GET", "/v1/mttf"): self._memoized(self._mttf),
            ("GET", "/v1/lemons"): self._memoized(self._lemons),
            ("GET", "/v1/snapshot"): self._snapshot,
            ("GET", "/metrics"): self._metrics_endpoint,
            ("POST", "/v1/whatif/checkpoint-cadence"): self._whatif,
        }

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _endpoint_label(self, path: str) -> str:
        """Bounded-cardinality endpoint label for metrics."""
        if any(known == path for _, known in self._routes):
            return path
        return "unknown"

    async def dispatch(self, request: Request) -> Response:
        """Route one request to its handler; never raises."""
        endpoint = self._endpoint_label(request.path)
        started = time.perf_counter()
        with maybe_span(
            self.telemetry,
            "serve.request",
            method=request.method,
            path=endpoint,
        ):
            response = await self._dispatch_inner(request)
        elapsed = time.perf_counter() - started
        self.metrics.histogram(
            "serve_request_seconds", endpoint=endpoint
        ).observe(elapsed)
        self.metrics.counter(
            "serve_requests_total",
            endpoint=endpoint,
            status=str(response.status),
        ).inc()
        return response

    async def _dispatch_inner(self, request: Request) -> Response:
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            allowed = sorted(
                method
                for method, path in self._routes
                if path == request.path
            )
            if allowed:
                return HttpError(
                    405,
                    f"{request.method} not allowed on {request.path}",
                    headers=(("Allow", ", ".join(allowed)),),
                ).response()
            return HttpError(404, f"no such endpoint {request.path!r}").response()
        try:
            result = handler(request)
            if asyncio.iscoroutine(result) or isinstance(result, Awaitable):
                result = await result
            return result
        except HttpError as err:
            return err.response()
        except Exception:
            logger.exception(
                "unhandled error serving %s %s", request.method, request.path
            )
            self.metrics.counter("serve_errors_total").inc()
            return HttpError(500, "internal server error").response()

    # ------------------------------------------------------------------
    # read memo
    # ------------------------------------------------------------------
    def _read_state(self) -> tuple:
        """Everything the memoized documents read, as one comparable key.

        ``version`` covers ``ingest`` and ``finish``; the rest are the
        inputs that change without them: the tracer's self-disable flag
        (``/v1/health``) and the estimator settings read at query time.
        The analytics object compares by identity, so a swapped session
        never answers from the old one's memo.
        """
        a = self.analytics
        return (
            a,
            a.version,
            tracer_self_disabled(a.telemetry),
            a.ettr.parameters(),
            a.mttf.rf_min_gpus,
        )

    def _memoized(self, handler: Callable[[Request], Response]):
        """``handler`` answered once per (path, query) and session state.

        Only 200 responses are kept; errors raise ``HttpError`` before
        anything is stored.
        """

        def read(request: Request) -> Response:
            state = self._read_state()
            if state != self._read_memo_state:
                self._read_memo.clear()
                self._read_memo_state = state
            key = (request.path, tuple(sorted(request.query.items())))
            body = self._read_memo.get(key)
            if body is not None:
                return Response(body=body)
            response = handler(request)
            if response.status == 200:
                self._read_memo.put(key, response.body)
            return response

        return read

    # ------------------------------------------------------------------
    # read-only endpoints
    # ------------------------------------------------------------------
    def _ping(self, request: Request) -> Response:
        return Response.json({"ok": True, "schema": SERVE_SCHEMA_VERSION})

    def _base_payload(self) -> Dict[str, Any]:
        a = self.analytics
        return {
            "schema": SERVE_SCHEMA_VERSION,
            "cluster": a.config.cluster_name,
            "n_nodes": a.config.n_nodes,
            "n_gpus": a.config.n_gpus,
            "watermark_days": a.watermark / DAY,
        }

    def _health(self, request: Request) -> Response:
        report = self.analytics.health()
        self.metrics.gauge("serve_health_score").set(report.score)
        payload = self._base_payload()
        payload.update(report.to_dict())
        payload["healthy"] = report.healthy
        return Response.json(payload)

    def _measured_rf(self):
        """The live r_f estimate, or None before enough large-job runtime."""
        try:
            return self.analytics.mttf.failure_rate()
        except ValueError:
            return None

    def _ettr(self, request: Request) -> Response:
        rf = self._measured_rf()
        payload = self._base_payload()
        payload["rf_per_1k_node_days"] = (
            rf.rate * 1000.0 if rf is not None else None
        )
        payload["comparison"] = (
            self.analytics.ettr.comparison(rf) if rf is not None else []
        )
        gpus = request.int_param("gpus")
        if gpus is not None:
            _require(gpus >= 8, "gpus must be >= 8")
            rf_override = request.float_param("rf_per_1k")
            rate = rf_override / 1000.0 if rf_override is not None else None
            if rate is None and rf is not None:
                rate = rf.rate
            if rate is None:
                raise HttpError(
                    400,
                    "no measured r_f yet (not enough large-job runtime); "
                    "pass rf_per_1k= explicitly",
                )
            queue_hours = request.float_param("queue_hours", 1.0)
            runtime_hours = request.float_param("runtime_hours", 24.0)
            simple = request.bool_param("simple", False)
            value = self.analytics.ettr.forecast(
                gpus,
                rate,
                queue_hours * HOUR,
                runtime_hours * HOUR,
                simple=simple,
            )
            payload["forecast"] = {
                "gpus": gpus,
                "rf_per_1k_node_days": rate * 1000.0,
                "queue_hours": queue_hours,
                "runtime_hours": runtime_hours,
                "equation": "eq2_simple" if simple else "eq1",
                "ettr": value,
            }
        return Response.json(payload)

    def _mttf(self, request: Request) -> Response:
        min_records = request.int_param("min_records", 1)
        estimator = self.analytics.mttf
        rf = self._measured_rf()
        payload = self._base_payload()
        payload.update(
            {
                "n_records": estimator.n_records,
                "largest_gpus": estimator.largest_gpus,
                "rf_per_1k_node_days": (
                    rf.rate * 1000.0 if rf is not None else None
                ),
                "rf_floor_gpus": estimator.rf_floor_gpus,
                "buckets": [
                    {
                        "gpus": bucket.gpus,
                        "n_records": bucket.n_records,
                        "failures": bucket.failures,
                        "runtime_hours": bucket.runtime_hours,
                        "mttf_hours": _json_safe(bucket.mttf_hours),
                        "mttf_hours_lo": _json_safe(bucket.mttf_hours_lo),
                        "mttf_hours_hi": _json_safe(bucket.mttf_hours_hi),
                    }
                    for bucket in estimator.buckets(min_records=min_records)
                ],
            }
        )
        return Response.json(payload)

    def _lemons(self, request: Request) -> Response:
        lemons = self.analytics.lemons
        scores = lemons.provisional_scores()
        payload = self._base_payload()
        payload.update(
            {
                "min_signals": lemons.MIN_SIGNALS,
                "suspects": lemons.suspects(scores),
                "scores": {str(node): votes for node, votes in scores.items()},
                "signals": {
                    str(node): lemons.live_signals(node) for node in scores
                },
                "node_records_complete": lemons.node_records_complete,
            }
        )
        return Response.json(payload)

    def _snapshot(self, request: Request) -> Response:
        # The versioned LiveAnalytics document itself (carries "schema").
        return Response.json(self.analytics.snapshot())

    def _metrics_endpoint(self, request: Request) -> Response:
        for name, value in self.whatif_cache.stats().items():
            self.metrics.gauge(f"serve_whatif_cache_{name}").set(value)
        for name, value in self.trace_cache.stats().items():
            self.metrics.gauge(f"serve_trace_cache_{name}").set(value)
        self.metrics.gauge("serve_breaker_open").set(int(self.breaker.open))
        body = self.metrics.render_prometheus().encode("utf-8")
        return Response(
            status=200, body=body, content_type=PROMETHEUS_CONTENT_TYPE
        )

    # ------------------------------------------------------------------
    # what-if: Fig. 10 as an interactive query
    # ------------------------------------------------------------------
    async def _whatif(self, request: Request) -> Response:
        spec = WhatIfSpec.from_payload(request.json())
        digest = spec.digest()
        cached = self.whatif_cache.get(digest)
        if cached is not None:
            # Cached bodies are pure functions of the request payload, so
            # they are safe to serve even while the breaker is open.
            self.metrics.counter("serve_whatif_cache_hits_total").inc()
            return Response(
                status=200,
                body=cached,
                headers=(
                    ("X-Repro-Cache", "hit"),
                    ("X-Repro-Config-Digest", digest),
                ),
            )
        if self.breaker.open:
            self.metrics.counter("serve_breaker_rejections_total").inc()
            raise HttpError(
                503,
                "what-if computation degraded (circuit breaker open); "
                "identical cached queries still serve",
                retry_after=self.RETRY_AFTER_S,
            )
        task = self._inflight.get(digest)
        if task is None:
            if len(self._inflight) >= self.max_concurrent_whatif:
                self.metrics.counter("serve_overload_rejections_total").inc()
                raise HttpError(
                    503,
                    f"what-if capacity exhausted "
                    f"({self.max_concurrent_whatif} in flight)",
                    retry_after=self.RETRY_AFTER_S,
                )
            task = asyncio.get_running_loop().create_task(
                self._run_whatif(digest, spec)
            )
            self._inflight[digest] = task
        body = await task
        return Response(
            status=200,
            body=body,
            headers=(
                ("X-Repro-Cache", "miss"),
                ("X-Repro-Config-Digest", digest),
            ),
        )

    async def _run_whatif(self, digest: str, spec: WhatIfSpec) -> bytes:
        """Single-flight computation: compute once, cache, settle waiters."""
        loop = asyncio.get_running_loop()
        try:
            with maybe_span(self.telemetry, "serve.whatif", digest=digest[:12]):
                payload = await loop.run_in_executor(
                    None, self._guarded_compute, digest, spec
                )
        except HttpError:
            raise
        except Exception as err:
            opened = self.breaker.record_failure()
            if opened:
                logger.error(
                    "what-if breaker opened after %d consecutive failures",
                    self.breaker.consecutive_failures,
                )
            raise HttpError(500, f"what-if computation failed: {err}") from err
        else:
            self.breaker.record_success()
            body = canonical_json(payload)
            self.whatif_cache.put(digest, body)
            return body
        finally:
            self._inflight.pop(digest, None)

    def _guarded_compute(
        self, digest: str, spec: WhatIfSpec
    ) -> Dict[str, Any]:
        """The retry loop around one what-if computation (executor side)."""
        attempt = 0
        while True:
            try:
                self.metrics.counter("serve_whatif_simulations_total").inc()
                return self.whatif_runner(spec)
            except HttpError:
                raise
            except Exception:
                self.metrics.counter("serve_whatif_failures_total").inc()
                if not self.retry.retryable(attempt):
                    raise
                self.metrics.counter("serve_whatif_retries_total").inc()
                self.retry.backoff.sleep(digest, attempt)
                attempt += 1

    def _compute_whatif(self, spec: WhatIfSpec) -> Dict[str, Any]:
        """Fig. 10 on demand, optionally grounded in a fresh campaign.

        With a ``campaign`` block, the named configuration is simulated
        (through the content-addressed trace cache, so repeats are disk
        reads) and its *measured* r_f leads the sweep's failure-rate
        axis; without one, the sweep is the pure Eq. 1 surface over the
        requested rates.
        """
        from repro.analysis.checkpoint_sweep import checkpoint_sweep
        from repro.analysis.mttf_analysis import mttf_analysis
        from repro.runtime.hashing import config_digest
        from repro.runtime.pool import CampaignPool

        rates = [r / 1000.0 for r in spec.failure_rates_per_1k]
        campaign_block: Optional[Dict[str, Any]] = None
        if spec.campaign is not None:
            config = spec.campaign.to_config()
            # The cache-first pool path, so repeats are disk reads.
            pool = CampaignPool(
                options=(self.run_options or RunOptions()).replace(
                    cache=self.trace_cache
                )
            )
            trace = pool.run([config])[0]
            analysis = mttf_analysis(trace)
            measured = analysis.failure_rate
            rates = [measured.rate] + [r for r in rates if r != measured.rate]
            campaign_block = {
                "cluster": spec.campaign.cluster,
                "nodes": spec.campaign.nodes,
                "days": spec.campaign.days,
                "seed": spec.campaign.seed,
                # Deliberately no trace provenance here: the response
                # must be a pure function of the payload (bit-identical
                # across evictions), and "simulated" vs "cached" is not.
                "config_digest": config_digest(config),
                "measured_rf_per_1k_node_days": measured.rate * 1000.0,
                "rf_events": measured.events,
                "rf_node_days": measured.exposure,
            }
        sweep = checkpoint_sweep(
            n_gpus=spec.n_gpus,
            failure_rates=tuple(dict.fromkeys(rates)),
            intervals_minutes=spec.intervals_minutes,
            targets=spec.targets,
            restart_overhead=spec.restart_overhead_minutes * MINUTE,
        )
        rows = []
        for rf in sweep.failure_rates:
            required = {}
            for target in spec.targets:
                required[f"{target:g}"] = _interval_label(
                    sweep.required[(rf, float(target))]
                )
            rows.append(
                {
                    "rf_per_1k_node_days": rf * 1000.0,
                    "expected_ettr_by_interval_minutes": {
                        f"{dt / MINUTE:g}": sweep.grid[(rf, dt)]
                        for dt in sweep.intervals
                    },
                    "required_interval_minutes_for_target_ettr": required,
                }
            )
        return {
            "schema": SERVE_SCHEMA_VERSION,
            "n_gpus": spec.n_gpus,
            "intervals_minutes": list(spec.intervals_minutes),
            "targets": list(spec.targets),
            "restart_overhead_minutes": spec.restart_overhead_minutes,
            "campaign": campaign_block,
            "rows": rows,
        }


def _json_safe(value: float) -> Optional[Any]:
    """Map inf/nan (not valid JSON) to serializable sentinels."""
    if value != value:  # nan
        return None
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return value


def _interval_label(dt: float) -> Optional[Any]:
    """Required-interval solution -> JSON: minutes, "any", or None.

    ``inf`` means any cadence meets the target; ``nan`` means the target
    is unreachable even with instant checkpoints (the restart overhead
    alone exceeds the failure budget) — reported as ``None``.
    """
    if dt != dt:  # nan
        return None
    if dt == float("inf"):
        return "any"
    return dt / MINUTE
