"""repro.resilience — fault injection and recovery for the harness itself.

The simulator models a cluster where failure is the steady state; this
package applies the same stance to the machinery *running* the
simulator.  Three pieces:

* :mod:`repro.resilience.chaos` — :class:`ChaosPolicy`, deterministic
  seed-driven injection of harness faults (worker death mid-seed, cache
  entry corruption, sink IO errors, malformed/late live-stream rows),
  mirroring how :mod:`repro.network.faults` injects fabric faults.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` /
  :class:`Backoff` (exponential, seeded jitter, deterministic) and the
  :class:`CircuitBreaker` that degrades pooled execution to inline
  after repeated pool-level failures.
* :mod:`repro.resilience.config` — :class:`ResilienceConfig`, the
  bundle the execution layer consumes (via
  ``RunOptions(resilience=...)``).

Every recovery action is accounted in ``obs`` metrics
(``resilience_retries_total``, ``resilience_cache_quarantined_total``,
``resilience_worker_respawns_total``, ...) and surfaces in
``repro obs summary``.  See ``docs/RESILIENCE.md``.

Quickstart::

    from repro import CampaignConfig, ClusterSpec, RunOptions, run_campaigns
    from repro.resilience import ChaosPolicy, ResilienceConfig
    from repro.runtime import TraceCache, seed_sweep_configs

    spec = ClusterSpec.rsc1_like(n_nodes=32, campaign_days=10)
    base = CampaignConfig(cluster_spec=spec, duration_days=10)
    configs = seed_sweep_configs(base, range(8))

    # Chaotic sweep: workers die, cache entries rot — results are still
    # bit-identical to a fault-free run, and if this process itself is
    # killed, running the sweep again against the same cache resumes it.
    traces = run_campaigns(
        configs,
        options=RunOptions(
            resilience=ResilienceConfig(
                chaos=ChaosPolicy(seed=7, worker_kill_rate=0.5,
                                  cache_corruption_rate=0.5),
            ),
            cache=TraceCache("sweep-cache/", enabled=True),
        ),
    )
"""

from repro.resilience.chaos import (
    CHAOS_EXIT_CODE,
    ChaosError,
    ChaosPolicy,
    WorkerKilled,
)
from repro.resilience.config import DEFAULT_RESILIENCE, ResilienceConfig
from repro.resilience.retry import Backoff, CircuitBreaker, RetryPolicy

__all__ = [
    "Backoff",
    "CHAOS_EXIT_CODE",
    "ChaosError",
    "ChaosPolicy",
    "CircuitBreaker",
    "DEFAULT_RESILIENCE",
    "ResilienceConfig",
    "RetryPolicy",
    "WorkerKilled",
]
