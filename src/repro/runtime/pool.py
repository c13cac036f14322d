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
  (waves, retry budgets, the circuit breaker, checkpoint resume) and
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
* **Crash-safe sweeps** — pass a
  :class:`~repro.resilience.checkpoint.CampaignCheckpoint` (or
  ``RunOptions(checkpoint_dir=...)``) and every completed config is
  persisted (manifest + partial results, both atomic); re-running the
  interrupted sweep resumes bit-identically — on the *same* backend or
  a different one.
* **Graceful degradation** — with one usable core, a single miss, or a
  broken ``multiprocessing`` environment, the pool runs in-process with
  identical results (campaign determinism is seeded, not scheduling-
  dependent).

Each returned trace carries a ``metadata["runtime"]`` block (wall time,
events executed, events/sec, source, executor) and ``pool.last_stats``
aggregates the sweep (hits, misses, retries, workers, events/sec) so
speedups and recoveries are measurable, not anecdotal.
"""

import os
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from repro.backends import (
    BackendUnavailable,
    DEFAULT_BACKEND,
    ExecutionBackend,
    TaskSpec,
    create_backend,
    execute_task,
)
from repro.campaign import CampaignConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import maybe_span
from repro.options import RunOptions
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.resilience.config import DEFAULT_RESILIENCE, ResilienceConfig
from repro.resilience.retry import CircuitBreaker
from repro.runtime.cache import TraceCache
from repro.runtime.hashing import config_digest
from repro.workload.trace import Trace

#: Registry counters the pool maintains; ``last_stats`` is rebuilt from
#: the per-run deltas of exactly these.
_POOL_COUNTERS = (
    "pool_campaigns_total",
    "pool_cache_hits_total",
    "pool_simulated_total",
    "pool_events_executed_total",
    "pool_resumed_total",
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
    resumed: int = 0
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
        if self.retries or self.respawns or self.resumed:
            recovered = (
                f", recovered: {self.retries} retries / "
                f"{self.respawns} respawns / {self.resumed} resumed"
            )
        via = f" via {self.backend}" if self.backend != DEFAULT_BACKEND else ""
        return (
            f"{self.campaigns} campaigns in {self.wall_time_s:.2f}s "
            f"({self.cache_hits} cache hits, {self.simulated} simulated "
            f"on {self.workers} worker{'s' if self.workers != 1 else ''}"
            f"{via}, {self.events_per_sec:,.0f} events/s{recovered})"
        )


#: Default of ``CampaignPool(cache=)``: "not passed", so ``options.cache``
#: applies (an explicit ``None`` means the default cache).
_FROM_OPTIONS = object()


class CampaignPool:
    """Runs batches of campaigns through the cache and a backend."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Union[TraceCache, bool, None] = _FROM_OPTIONS,
        telemetry=None,
        resilience: Optional[ResilienceConfig] = None,
        options: Optional[RunOptions] = None,
    ):
        """
        Args:
            max_workers: Upper bound on worker processes.  Defaults to the
                machine's CPU count; ``1`` forces in-process execution.
            cache: A :class:`TraceCache`, ``None`` for the default cache
                (honors ``REPRO_TRACE_CACHE``), or ``False`` to disable
                caching for this pool.
            telemetry: Optional :class:`repro.obs.Telemetry`; the pool
                accounts into its registry (and emits dispatch events when
                the tracer is enabled).  Without one, the pool still owns
                a private :class:`MetricsRegistry` — ``last_stats`` is
                always derived from registry counters.
            resilience: Recovery posture (retry budget, chaos injection,
                circuit breaker); ``None`` uses the default policy.
            options: A :class:`repro.RunOptions`; fills any of the above
                that were not passed explicitly (workers, cache +
                cache_dir, telemetry, resilience, checkpoint_dir), and
                selects the execution backend (``backend`` +
                ``backend_options``).
        """
        opts = options if options is not None else RunOptions()
        if max_workers is None:
            max_workers = opts.workers
        if cache is _FROM_OPTIONS:
            cache = opts.cache
        if telemetry is None:
            telemetry = opts.telemetry
        if resilience is None:
            resilience = opts.resilience or DEFAULT_RESILIENCE
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.backend = opts.backend or DEFAULT_BACKEND
        self.backend_options = dict(opts.backend_options or {})
        if self.backend == "inline" and max_workers not in (None, 1):
            warnings.warn(
                f"CampaignPool: max_workers={max_workers} conflicts with "
                "backend='inline' (serial); forcing workers=1 — pass "
                "repro.RunOptions(backend=..., workers=...) consistently "
                "instead",
                DeprecationWarning,
                stacklevel=2,
            )
            max_workers = 1
        self.max_workers = max_workers
        self.resilience = resilience
        if cache is False:
            self.cache: Optional[TraceCache] = None
        elif cache is None or cache is True:
            self.cache = TraceCache(
                root=opts.cache_dir,
                verify=resilience.verify_cache_integrity,
            )
        else:
            self.cache = cache
        self.telemetry = telemetry
        self.metrics: MetricsRegistry = (
            telemetry.metrics if telemetry is not None else MetricsRegistry()
        )
        self.checkpoint_dir = opts.checkpoint_dir
        #: One breaker per pool: once open, this pool never goes back to
        #: backend execution (a broken mp environment does not heal).
        self.breaker = CircuitBreaker(threshold=resilience.circuit_threshold)
        self.last_stats: Optional[SweepStats] = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker_count(self, n_misses: int) -> int:
        limit = self.max_workers
        if limit is None:
            limit = os.cpu_count() or 1
        return max(1, min(limit, n_misses))

    def run(
        self,
        configs: Sequence[CampaignConfig],
        checkpoint: Optional[CampaignCheckpoint] = None,
    ) -> List[Trace]:
        """Simulate (or load) every config; results in input order.

        All accounting flows through the metrics registry (counters are
        cumulative across ``run`` calls); ``last_stats`` is rebuilt from
        this run's counter deltas, so the registry is the single source
        of truth for sweep statistics.

        ``checkpoint`` (or a pool built with ``options.checkpoint_dir``)
        makes the sweep crash-safe: completed configs are persisted as
        they finish and an interrupted sweep, re-run with the same
        checkpoint — on *any* backend — resumes bit-identically.
        """
        metrics = self.metrics
        baseline = {
            name: metrics.counter(name).value for name in _POOL_COUNTERS
        }
        configs = list(configs)
        if checkpoint is None and self.checkpoint_dir is not None:
            checkpoint = CampaignCheckpoint(self.checkpoint_dir)
        if checkpoint is not None:
            checkpoint.begin(configs)
            if getattr(checkpoint, "telemetry", None) is None:
                # Checkpoint writes profile into this sweep's spans.
                checkpoint.telemetry = self.telemetry
        chaos = self.resilience.chaos
        results: List[Optional[Trace]] = [None] * len(configs)
        miss_indices: List[int] = []
        with maybe_span(
            self.telemetry, "sweep", campaigns=len(configs)
        ), metrics.timer("pool_sweep_wall_seconds") as sweep_timer:
            for i, config in enumerate(configs):
                restored = (
                    checkpoint.load(config) if checkpoint is not None else None
                )
                if restored is not None:
                    results[i] = restored
                    metrics.counter("pool_resumed_total").inc()
                    continue
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
                    if checkpoint is not None:
                        checkpoint.record(config, cached)
                else:
                    miss_indices.append(i)

            workers = self._worker_count(len(miss_indices))
            if miss_indices:
                miss_configs = [configs[i] for i in miss_indices]
                executed, workers = self._execute(miss_configs, workers)
                recorded = 0
                for i, (trace, executor) in zip(miss_indices, executed):
                    runtime = dict(trace.metadata.get("runtime", {}))
                    runtime["executor"] = executor
                    trace.metadata["runtime"] = runtime
                    if self.cache is not None:
                        self.cache.put(configs[i], trace)
                    if checkpoint is not None:
                        recorded += 1
                        checkpoint.record(
                            configs[i],
                            trace,
                            flush=(
                                recorded % self.resilience.checkpoint_every
                                == 0
                            ),
                        )
                    results[i] = trace
                    metrics.counter("pool_simulated_total").inc()
                    metrics.histogram("campaign_wall_seconds").observe(
                        float(runtime.get("wall_time_s", 0.0))
                    )
                if checkpoint is not None:
                    checkpoint.flush()
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
            resumed=delta("pool_resumed_total"),
            retries=delta("resilience_retries_total"),
            respawns=delta("resilience_worker_respawns_total"),
            backend=self.backend,
        )
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.tracer.emit(
                "pool.sweep",
                f"{len(configs)}-campaigns",
                0.0,
                campaigns=self.last_stats.campaigns,
                cache_hits=self.last_stats.cache_hits,
                simulated=self.last_stats.simulated,
                workers=self.last_stats.workers,
                wall_time_s=self.last_stats.wall_time_s,
                retries=self.last_stats.retries,
                respawns=self.last_stats.respawns,
                resumed=self.last_stats.resumed,
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
    ) -> Optional[ExecutionBackend]:
        """Instantiate the backend for this dispatch, or None for the
        guaranteed in-process path.

        The default backend keeps its historical fast path: one worker
        or one config means no pool is worth spinning up.  An explicit
        non-default backend always dispatches (a distributed queue may
        be drained remotely even for a single config; an explicit
        ``inline`` request should exercise the backend loop it asked
        for).  An open breaker never dispatches — a broken environment
        does not heal.
        """
        if self.breaker.open:
            return None
        if self.backend == DEFAULT_BACKEND and (
            workers <= 1 or n_configs <= 1
        ):
            return None
        return create_backend(
            self.backend,
            workers=workers,
            telemetry=self.telemetry,
            options=self.backend_options,
        )

    def _execute(
        self, configs: List[CampaignConfig], workers: int
    ) -> "Tuple[List[Tuple[Trace, str]], int]":
        """Run the given configs through the backend, falling back inline.

        Returns ``([(trace, executor_label), ...], workers_used)`` in
        input order.
        """
        digests = [config_digest(c) for c in configs]
        results: List[Optional[Tuple[Trace, str]]] = [None] * len(configs)
        dispatched = 0
        serial_backend = False
        backend = self._select_backend(len(configs), workers)
        if backend is not None:
            serial_backend = backend.capabilities.serial
            try:
                self._execute_waves(backend, configs, digests, results)
            finally:
                backend.close()
            dispatched = sum(1 for r in results if r is not None)
        for i, config in enumerate(configs):
            if results[i] is None:
                results[i] = (
                    self._simulate_inline(config, digests[i]),
                    "inline",
                )
        if not dispatched or serial_backend:
            return list(results), 1
        return list(results), workers

    def _simulate_inline(self, config: CampaignConfig, digest: str) -> Trace:
        """In-process attempt loop: retry with backoff, then re-raise.

        The guaranteed-completion path: runs when no backend was
        selected, after the circuit opened, or for attempts whose
        backend retry budget ran dry — re-raising the genuine error if
        it persists, so real failures still surface with their real
        exception.
        """
        retry = self.resilience.retry
        chaos = self.resilience.chaos
        for attempt in range(retry.max_attempts):
            try:
                return execute_task(
                    TaskSpec(
                        config=config,
                        digest=digest,
                        attempt=attempt,
                        chaos=chaos,
                    ),
                    telemetry=self.telemetry,
                    in_process=True,
                )
            except Exception as err:
                if not retry.retryable(attempt):
                    raise
                self._note_retry(digest, attempt, type(err).__name__)
                retry.backoff.sleep(digest, attempt)
        raise AssertionError("unreachable: retry loop exited")  # pragma: no cover

    def _execute_waves(
        self,
        backend: ExecutionBackend,
        configs: List[CampaignConfig],
        digests: List[str],
        results: List[Optional[Tuple[Trace, str]]],
    ) -> None:
        """Dispatch waves of attempts until done, dead, or circuit-open.

        Backend-agnostic policy loop.  Fills ``results`` in place;
        indices still ``None`` on return are the inline fallback's
        responsibility (budget exhausted or breaker open), so the sweep
        always completes and real errors still surface — from the
        inline path, with the genuine exception.

        Outcome kinds map to recovery actions: ``"error"`` retries in
        place (the worker survived); ``"lost"`` and ``"timeout"`` mark
        the backend broken — it is hard-killed, the breaker records a
        failure, and a seeded backoff precedes the respawn.
        """
        retry = self.resilience.retry
        chaos = self.resilience.chaos
        metrics = self.metrics
        label = backend.executor_label
        attempts = [0] * len(configs)
        pending = list(range(len(configs)))
        wave = 0
        respawn_needed = False
        while pending and not self.breaker.open:
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
            failed: List[int] = []
            broken = False
            for outcome in outcomes:
                i = pending[outcome.index]
                if outcome.kind == "ok":
                    results[i] = (outcome.trace, label)
                    continue
                failed.append(i)
                if outcome.kind == "timeout":
                    metrics.counter("resilience_timeouts_total").inc()
                    broken = True  # hung worker: backend must die
                elif outcome.kind == "lost":
                    broken = True  # dead worker took the backend down
                # "error": attempt raised; the worker survives.
            pending = []
            for i in failed:
                if retry.retryable(attempts[i]):
                    self._note_retry(
                        digests[i], attempts[i], "pool-attempt-failed"
                    )
                    attempts[i] += 1
                    pending.append(i)
                # else: leave results[i] None for the inline fallback,
                # which re-raises the genuine error if it persists.
            if broken:
                opened = self.breaker.record_failure()
                if opened:
                    metrics.counter("resilience_circuit_open_total").inc()
                backend.kill()
                retry.backoff.sleep("pool-respawn", wave)
                respawn_needed = True
            else:
                self.breaker.record_success()
            wave += 1


def run_campaigns(
    configs: Sequence[CampaignConfig],
    options: Optional[RunOptions] = None,
    *,
    checkpoint: Optional[CampaignCheckpoint] = None,
) -> List[Trace]:
    """One-call sweep: pool + cache with defaults; results in input order.

    ``options`` (:class:`repro.RunOptions`) configures workers, cache and
    backend selection (``RunOptions(backend="work-queue",
    backend_options={...})``).  ``checkpoint`` (or
    ``options.checkpoint_dir``) makes the sweep crash-safe and resumable
    on any backend.
    """
    return CampaignPool(options=options).run(configs, checkpoint=checkpoint)


def seed_sweep_configs(
    base: CampaignConfig, seeds: Sequence[int]
) -> List[CampaignConfig]:
    """Derive one config per seed from a base config (the common sweep)."""
    return [replace(base, seed=int(seed)) for seed in seeds]
