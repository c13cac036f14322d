"""Parallel campaign execution: fan configs across an execution backend.

``CampaignPool`` is the sweep engine behind every multi-campaign workload
in the repository — multi-seed validation sweeps, ablation pairs, and
checkpoint/size grids.  Semantics:

* **Deterministic ordering** — results come back in input order no matter
  how workers interleave, so a pooled sweep is a drop-in replacement for
  a serial list comprehension.
* **Cache first** — each config is looked up in the content-addressed
  :class:`~repro.runtime.cache.TraceCache` before any work is dispatched;
  only misses are simulated, and fresh results are written back.
* **Pluggable mechanism, fixed policy** — the pool owns dispatch policy
  (waves, retry budgets, the circuit breaker, the inline fallback) and
  delegates *where* attempts run to an
  :class:`~repro.backends.ExecutionBackend`:
  ``inline`` (serial, in-process), ``local-pool`` (this machine's
  cores — the default), or ``work-queue`` (a filesystem queue drained
  by workers on any host).  The backend never affects simulated
  content: the same configs produce bit-identical traces on every
  backend, chaos included.
* **Failure is the steady state** — the pool treats its workers the way
  the paper's clusters treat nodes.  Every config carries a retry budget
  with exponential, seeded-jitter backoff; a worker that dies mid-seed
  (OOM-kill, segfault, chaos injection) surfaces as a ``"lost"`` outcome,
  the backend is hard-killed and respawned, and the lost attempts are
  re-dispatched; a per-wave timeout reclaims hung workers; and a circuit
  breaker degrades to inline execution after repeated backend-level
  failures rather than fighting a broken environment.  All recovery
  actions are accounted in ``resilience_*`` metrics, and every dispatch
  wave is measured (``backend.wave`` spans,
  ``backend_dispatch_total{backend=...}`` counters).
* **Crash-safe sweeps** — the cache is the resume point.  Entries are
  atomic and digest-verified, so re-running an interrupted sweep
  against the same cache resumes it bit-identically: stored configs
  are cache hits, the rest simulate — on the *same* backend or a
  different one.
* **One attempt loop, one fallback** — :meth:`CampaignPool._execute_waves`
  is the only place attempts are dispatched and retried.  With one
  usable core or a single miss on the default backend, an open breaker,
  a broken ``multiprocessing`` environment, or a spent backend retry
  budget, the pool runs the remaining attempts through
  :class:`~repro.backends.InlineBackend` with identical results
  (campaign determinism is seeded, not scheduling-dependent); when its
  budget is spent too, the genuine error is re-raised.

Each returned trace carries a ``metadata["runtime"]`` block (wall time,
events executed, events/sec, source, executor) and ``pool.last_stats``
aggregates the sweep (hits, misses, retries, workers, events/sec) so
speedups and recoveries are measurable, not anecdotal.
"""

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.backends import (
    BackendError,
    BackendUnavailable,
    ExecutionBackend,
    InlineBackend,
    LocalPoolBackend,
    TaskOutcome,
    TaskSpec,
)
from repro.campaign import CampaignConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import maybe_span
from repro.options import DEFAULT_BACKEND, RunOptions
from repro.resilience.config import DEFAULT_RESILIENCE
from repro.resilience.retry import CircuitBreaker
from repro.runtime.cache import TraceCache
from repro.runtime.hashing import config_digest
from repro.workload.trace import Trace

def _work_queue(workers, telemetry, **options) -> ExecutionBackend:
    # Imported on use: the work-queue module imports repro.runtime,
    # which imports this module.
    from repro.backends.workqueue import WorkQueueBackend

    return WorkQueueBackend(workers=workers, **options)


#: The three execution backends by ``RunOptions.backend`` name, each
#: called with ``(workers, telemetry, **backend_options)``.  Only
#: ``work-queue`` takes options; the others reject any as a TypeError.
_BACKENDS = {
    "inline": lambda workers, telemetry: InlineBackend(telemetry=telemetry),
    "local-pool": lambda workers, telemetry: LocalPoolBackend(workers=workers),
    "work-queue": _work_queue,
}

#: Registry counters the pool maintains; ``last_stats`` is rebuilt from
#: the per-run deltas of exactly these.
_POOL_COUNTERS = (
    "pool_campaigns_total",
    "pool_cache_hits_total",
    "pool_simulated_total",
    "pool_events_executed_total",
    "resilience_retries_total",
    "resilience_worker_respawns_total",
)


@dataclass(frozen=True)
class SweepStats:
    """Aggregate accounting of one ``CampaignPool.run`` call."""

    campaigns: int
    cache_hits: int
    simulated: int
    workers: int
    wall_time_s: float
    events_executed: int
    retries: int = 0
    respawns: int = 0
    backend: str = DEFAULT_BACKEND

    @property
    def events_per_sec(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.events_executed / self.wall_time_s

    def render(self) -> str:
        recovered = ""
        if self.retries or self.respawns:
            recovered = (
                f", recovered: {self.retries} retries / "
                f"{self.respawns} respawns"
            )
        via = f" via {self.backend}" if self.backend != DEFAULT_BACKEND else ""
        return (
            f"{self.campaigns} campaigns in {self.wall_time_s:.2f}s "
            f"({self.cache_hits} cache hits, {self.simulated} simulated "
            f"on {self.workers} worker{'s' if self.workers != 1 else ''}"
            f"{via}, {self.events_per_sec:,.0f} events/s{recovered})"
        )


class CampaignPool:
    """Runs batches of campaigns through the cache and a backend."""

    def __init__(self, options: Optional[RunOptions] = None):
        """
        Args:
            options: A :class:`repro.RunOptions`: the worker bound
                (``workers``; ``None`` = CPU count, ``1`` = in-process),
                the cache, the telemetry the pool accounts into, the
                recovery posture (``resilience``; ``None`` = the default
                policy) and the execution backend (``backend`` +
                ``backend_options``).  Without telemetry the pool still
                owns a private :class:`MetricsRegistry` — ``last_stats``
                is always derived from registry counters.
        """
        opts = options if options is not None else RunOptions()
        self.backend = opts.backend
        self.backend_options = dict(opts.backend_options or {})
        self.max_workers = opts.workers
        self.resilience = opts.resilience or DEFAULT_RESILIENCE
        self.cache: Optional[TraceCache] = opts.resolved_cache()
        self.telemetry = opts.telemetry
        self.metrics: MetricsRegistry = (
            opts.telemetry.metrics
            if opts.telemetry is not None
            else MetricsRegistry()
        )
        #: One breaker per pool: once open, this pool never goes back to
        #: backend execution (a broken mp environment does not heal).
        self.breaker = CircuitBreaker(
            threshold=self.resilience.circuit_threshold
        )
        self.last_stats: Optional[SweepStats] = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker_count(self, n_misses: int) -> int:
        limit = self.max_workers
        if limit is None:
            limit = os.cpu_count() or 1
        return max(1, min(limit, n_misses))

    def run(self, configs: Sequence[CampaignConfig]) -> List[Trace]:
        """Simulate (or load) every config; results in input order.

        All accounting flows through the metrics registry (counters are
        cumulative across ``run`` calls); ``last_stats`` is rebuilt from
        this run's counter deltas, so the registry is the single source
        of truth for sweep statistics.

        Fresh traces are written back to the cache, so a sweep re-run
        against the same cache — on *any* backend — simulates only the
        configs the cache does not hold.
        """
        metrics = self.metrics
        baseline = {
            name: metrics.counter(name).value for name in _POOL_COUNTERS
        }
        configs = list(configs)
        chaos = self.resilience.chaos
        results: List[Optional[Trace]] = [None] * len(configs)
        miss_indices: List[int] = []
        with maybe_span(
            self.telemetry, "sweep", campaigns=len(configs)
        ), metrics.timer("pool_sweep_wall_seconds") as sweep_timer:
            for i, config in enumerate(configs):
                if self.cache is not None and chaos is not None:
                    # Chaos models a torn write / bit rot landing between
                    # the entry's write and this read.
                    chaos.corrupt_before_read(self.cache, config)
                cached = (
                    self.cache.get(config) if self.cache is not None else None
                )
                if cached is not None:
                    results[i] = cached
                    metrics.counter("pool_cache_hits_total").inc()
                else:
                    miss_indices.append(i)

            workers = self._worker_count(len(miss_indices))
            if miss_indices:
                miss_configs = [configs[i] for i in miss_indices]
                executed, workers = self._execute(miss_configs, workers)
                for i, (trace, executor) in zip(miss_indices, executed):
                    runtime = dict(trace.metadata.get("runtime", {}))
                    runtime["executor"] = executor
                    trace.metadata["runtime"] = runtime
                    if self.cache is not None:
                        self.cache.put(configs[i], trace)
                    results[i] = trace
                    metrics.counter("pool_simulated_total").inc()
                    metrics.histogram("campaign_wall_seconds").observe(
                        float(runtime.get("wall_time_s", 0.0))
                    )
            metrics.counter("pool_campaigns_total").inc(len(configs))
            metrics.counter("pool_events_executed_total").inc(
                sum(
                    int(t.metadata.get("runtime", {}).get("events_executed", 0))
                    for t in results
                    if t is not None
                )
            )
            metrics.gauge("pool_workers").set(workers if miss_indices else 0)

        def delta(name: str) -> int:
            return int(metrics.counter(name).value - baseline[name])

        self.last_stats = SweepStats(
            campaigns=delta("pool_campaigns_total"),
            cache_hits=delta("pool_cache_hits_total"),
            simulated=delta("pool_simulated_total"),
            workers=int(metrics.gauge("pool_workers").value),
            wall_time_s=sweep_timer.elapsed,
            events_executed=delta("pool_events_executed_total"),
            retries=delta("resilience_retries_total"),
            respawns=delta("resilience_worker_respawns_total"),
            backend=self.backend,
        )
        return [t for t in results if t is not None]

    # ------------------------------------------------------------------
    # resilient dispatch
    # ------------------------------------------------------------------
    def _note_retry(self, digest: str, attempt: int, reason: str) -> None:
        self.metrics.counter("resilience_retries_total").inc()
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.tracer.emit(
                "resilience.retry",
                digest[:12],
                0.0,
                attempt=attempt,
                reason=reason,
            )

    def _select_backend(
        self, n_configs: int, workers: int
    ) -> ExecutionBackend:
        """Instantiate the backend for this dispatch.

        An open breaker never dispatches to a pool again (a broken
        environment does not heal), and the default backend spins up no
        pool for one worker or one config: both run on
        :class:`InlineBackend`.  An explicit non-default backend always
        dispatches (a distributed queue may be drained remotely even for
        a single config).
        """
        if self.breaker.open or (
            self.backend == DEFAULT_BACKEND and (workers <= 1 or n_configs <= 1)
        ):
            return InlineBackend(telemetry=self.telemetry)
        return _BACKENDS[self.backend](
            workers, self.telemetry, **self.backend_options
        )

    def _execute(
        self, configs: List[CampaignConfig], workers: int
    ) -> "Tuple[List[Tuple[Trace, str]], int]":
        """Run the given configs through the backend, falling back inline.

        Returns ``([(trace, executor_label), ...], workers_used)`` in
        input order.  Attempts the backend left unresolved (breaker
        open, backend unavailable, retry budget spent) get a fresh
        budget on :class:`InlineBackend`.
        """
        digests = [config_digest(c) for c in configs]
        results: List[Optional[Tuple[Trace, str]]] = [None] * len(configs)
        backend = self._select_backend(len(configs), workers)
        try:
            self._execute_waves(
                backend, configs, digests, results, list(range(len(configs)))
            )
        finally:
            backend.close()
        leftover = [i for i, r in enumerate(results) if r is None]
        if leftover:
            self._execute_waves(
                InlineBackend(telemetry=self.telemetry),
                configs,
                digests,
                results,
                leftover,
            )
        if len(leftover) == len(configs) or backend.capabilities.serial:
            return list(results), 1
        return list(results), workers

    def _execute_waves(
        self,
        backend: ExecutionBackend,
        configs: List[CampaignConfig],
        digests: List[str],
        results: List[Optional[Tuple[Trace, str]]],
        pending: List[int],
    ) -> None:
        """Dispatch waves of the ``pending`` attempts until done, dead,
        or circuit-open: the pool's only attempt loop.

        Backend-agnostic policy loop.  Fills ``results`` in place.  On a
        serial backend (the inline fallback) the loop ignores the
        breaker and re-raises the genuine error of a config whose budget
        is spent; on any other backend, indices still ``None`` on return
        are left for that fallback.

        Outcome kinds map to recovery actions: ``"error"`` retries in
        place after a seeded backoff (the worker survived); ``"lost"``
        and ``"timeout"`` mark the backend broken — it is hard-killed,
        the breaker records a failure, and a seeded backoff precedes
        the respawn.
        """
        retry = self.resilience.retry
        chaos = self.resilience.chaos
        metrics = self.metrics
        label = backend.executor_label
        final = backend.capabilities.serial
        attempts = [0] * len(configs)
        wave = 0
        respawn_needed = False
        while pending and (final or not self.breaker.open):
            if respawn_needed:
                metrics.counter("resilience_worker_respawns_total").inc()
                respawn_needed = False
            tasks = [
                TaskSpec(
                    config=configs[i],
                    digest=digests[i],
                    attempt=attempts[i],
                    chaos=chaos,
                )
                for i in pending
            ]
            with maybe_span(
                self.telemetry,
                "backend.wave",
                backend=backend.name,
                wave=wave,
                tasks=len(tasks),
            ):
                try:
                    handle = backend.submit_wave(tasks)
                except BackendUnavailable:
                    if wave == 0:
                        # Backend never came up (e.g. a sandbox without
                        # /dev/shm): degrade silently to the inline
                        # fallback without tripping the breaker.
                        return
                    opened = self.breaker.record_failure()
                    if opened:
                        metrics.counter(
                            "resilience_circuit_open_total"
                        ).inc()
                    backend.kill()
                    retry.backoff.sleep("pool-respawn", wave)
                    respawn_needed = True
                    wave += 1
                    continue
                metrics.counter(
                    "backend_dispatch_total", backend=backend.name
                ).inc(len(tasks))
                timeout_s = (
                    retry.timeout_s
                    if backend.capabilities.supports_timeout
                    else None
                )
                outcomes = backend.poll(handle, timeout_s=timeout_s)
            failed: List[Tuple[int, TaskOutcome]] = []
            broken = False
            for outcome in outcomes:
                i = pending[outcome.index]
                if outcome.kind == "ok":
                    results[i] = (outcome.trace, label)
                    continue
                failed.append((i, outcome))
                if outcome.kind == "timeout":
                    metrics.counter("resilience_timeouts_total").inc()
                    broken = True  # hung worker: backend must die
                elif outcome.kind == "lost":
                    broken = True  # dead worker took the backend down
                # "error": attempt raised; the worker survives.
            pending = []
            for i, outcome in failed:
                if retry.retryable(attempts[i]):
                    self._note_retry(
                        digests[i], attempts[i], outcome.error or outcome.kind
                    )
                    attempts[i] += 1
                    pending.append(i)
                elif final:
                    raise outcome.attrs.get("exception") or BackendError(
                        f"{backend.name} attempt failed: {outcome.error}"
                    )
                # else: leave results[i] None for the inline fallback.
            if broken:
                opened = self.breaker.record_failure()
                if opened:
                    metrics.counter("resilience_circuit_open_total").inc()
                backend.kill()
                retry.backoff.sleep("pool-respawn", wave)
                respawn_needed = True
            else:
                self.breaker.record_success()
                if pending:
                    retry.backoff.sleep("pool-retry", wave)
            wave += 1


def run_campaigns(
    configs: Sequence[CampaignConfig],
    options: Optional[RunOptions] = None,
) -> List[Trace]:
    """One-call sweep: pool + cache with defaults; results in input order.

    ``options`` (:class:`repro.RunOptions`) configures workers, cache and
    backend selection (``RunOptions(backend="work-queue",
    backend_options={...})``).  Re-running an interrupted sweep with
    the same cache resumes it on any backend.
    """
    return CampaignPool(options=options).run(configs)


def seed_sweep_configs(
    base: CampaignConfig, seeds: Sequence[int]
) -> List[CampaignConfig]:
    """Derive one config per seed from a base config (the common sweep)."""
    return [replace(base, seed=int(seed)) for seed in seeds]
