"""repro — reproduction of "Revisiting Reliability in Large-Scale Machine
Learning Research Clusters" (HPCA 2025).

The package has three layers:

1. **Substrates** — a discrete-event simulator (:mod:`repro.sim`), a
   component-level cluster hardware model with health checks and
   remediation (:mod:`repro.cluster`), a rail-optimized fabric with
   adaptive routing (:mod:`repro.network`), a Slurm-semantics gang
   scheduler (:mod:`repro.scheduler`), and a calibrated synthetic workload
   (:mod:`repro.workload`).
2. **Core** (:mod:`repro.core`) — the paper's contribution: the failure
   taxonomy, attribution, ETTR/MTTF/goodput models, lemon-node detection,
   and checkpoint design-space tools.
3. **Analysis** (:mod:`repro.analysis`) — one module per table/figure,
   consuming traces produced by :mod:`repro.campaign`.

Execution is configured through one object — :class:`repro.RunOptions`
— accepted uniformly by :func:`run_campaign`, :func:`run_campaigns`,
:class:`CampaignPool`, and ``repro.live``; the resilient execution
layer (retry/backoff, chaos injection) lives in :mod:`repro.resilience`
and plugs in via ``RunOptions(resilience=...)``; a sweep re-run against
the same trace cache resumes where it stopped.  *Where* sweep
attempts execute is pluggable too: :mod:`repro.backends` defines the
:class:`ExecutionBackend` protocol with ``inline``, ``local-pool``,
and ``work-queue`` implementations, selected via
``RunOptions(backend=...)`` — traces are bit-identical on all of them.

Quickstart::

    from repro import CampaignConfig, ClusterSpec, RunOptions, run_campaign
    from repro.analysis import job_status_breakdown

    spec = ClusterSpec.rsc1_like(n_nodes=64, campaign_days=30)
    trace = run_campaign(CampaignConfig(cluster_spec=spec, duration_days=30))
    print(job_status_breakdown(trace).render())
"""

from repro.campaign import Campaign, CampaignConfig, run_campaign
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.jobtypes import (
    IntendedOutcome,
    JobAttemptRecord,
    JobState,
    MAX_JOB_LIFETIME,
    QosTier,
)
from repro.options import DEFAULT_OPTIONS, RUN_OPTIONS_VERSION, RunOptions
from repro.workload.profiles import WorkloadProfile, rsc1_profile, rsc2_profile
from repro.workload.trace import NodeTraceRecord, Trace

__version__ = "1.0.0"


def __getattr__(name):
    # Heavier stable-surface members (pool, cache, live, obs, resilience)
    # resolve lazily so `import repro` stays import-light; each is a
    # first-class re-export, present in __all__ and dir(repro).
    if name in _LAZY_EXPORTS:
        module, attr = _LAZY_EXPORTS[name]
        import importlib

        value = getattr(importlib.import_module(module), attr)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


_LAZY_EXPORTS = {
    "CampaignPool": ("repro.runtime.pool", "CampaignPool"),
    "run_campaigns": ("repro.runtime.pool", "run_campaigns"),
    "seed_sweep_configs": ("repro.runtime.pool", "seed_sweep_configs"),
    "TraceCache": ("repro.runtime.cache", "TraceCache"),
    "LiveAnalytics": ("repro.live.analytics", "LiveAnalytics"),
    "Telemetry": ("repro.obs.telemetry", "Telemetry"),
    "ResilienceConfig": ("repro.resilience.config", "ResilienceConfig"),
    "ChaosPolicy": ("repro.resilience.chaos", "ChaosPolicy"),
    "ExecutionBackend": ("repro.backends.base", "ExecutionBackend"),
    "InlineBackend": ("repro.backends.inline", "InlineBackend"),
    "LocalPoolBackend": ("repro.backends.local_pool", "LocalPoolBackend"),
    "WorkQueueBackend": ("repro.backends.workqueue", "WorkQueueBackend"),
}


def __dir__():
    return sorted(set(list(globals()) + list(_LAZY_EXPORTS)))


__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignPool",
    "ChaosPolicy",
    "Cluster",
    "ClusterSpec",
    "DEFAULT_OPTIONS",
    "ExecutionBackend",
    "InlineBackend",
    "IntendedOutcome",
    "JobAttemptRecord",
    "JobState",
    "LiveAnalytics",
    "LocalPoolBackend",
    "MAX_JOB_LIFETIME",
    "NodeTraceRecord",
    "QosTier",
    "RUN_OPTIONS_VERSION",
    "ResilienceConfig",
    "RunOptions",
    "Telemetry",
    "Trace",
    "TraceCache",
    "WorkQueueBackend",
    "WorkloadProfile",
    "run_campaign",
    "run_campaigns",
    "rsc1_profile",
    "rsc2_profile",
    "seed_sweep_configs",
    "__version__",
]
