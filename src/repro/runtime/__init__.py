"""repro.runtime — parallel sweeps and the content-addressed trace cache.

The execution layer between "a CampaignConfig" and "a Trace":

* :class:`CampaignPool` / :func:`run_campaigns` fan multi-seed sweeps,
  ablation pairs, and config grids across worker processes with
  deterministic result ordering and a serial fallback.
* :class:`TraceCache` / :func:`cached_run_campaign` make every call site
  pay for a given (config, seed) at most once: the fully-resolved config
  is content-hashed and the simulated trace stored on disk; later hits
  load instead of re-simulating.  Disable with ``REPRO_TRACE_CACHE=off``.
* :func:`config_digest` / :func:`trace_digest` are the stable hashes the
  cache and the determinism tests are built on.

Quickstart::

    from repro import CampaignConfig, ClusterSpec
    from repro.runtime import CampaignPool, seed_sweep_configs

    spec = ClusterSpec.rsc1_like(n_nodes=64, campaign_days=30)
    base = CampaignConfig(cluster_spec=spec, duration_days=30)
    pool = CampaignPool()
    traces = pool.run(seed_sweep_configs(base, range(8)))
    print(pool.last_stats.render())
"""

from repro.runtime.cache import (
    ENV_VAR,
    TraceCache,
    cache_enabled_by_env,
    cached_run_campaign,
    default_cache_root,
)
from repro.runtime.hashing import (
    CACHE_FORMAT_VERSION,
    canonicalize,
    config_digest,
    trace_digest,
)
from repro.runtime.pool import (
    CampaignPool,
    SweepStats,
    run_campaigns,
    seed_sweep_configs,
)
__all__ = [
    "CACHE_FORMAT_VERSION",
    "CampaignPool",
    "ENV_VAR",
    "SweepStats",
    "TraceCache",
    "cache_enabled_by_env",
    "cached_run_campaign",
    "canonicalize",
    "config_digest",
    "default_cache_root",
    "run_campaigns",
    "seed_sweep_configs",
    "trace_digest",
]
