"""Contract test for the promoted public surface.

``repro.__all__`` (and each subpackage's) is a compatibility promise:
these snapshots fail loudly when a name is dropped or renamed, so
breaking the surface is always a deliberate, reviewed act.  Additions
are cheap (extend the snapshot); removals should hurt.
"""

import dataclasses

import pytest

import repro

#: The one-package import surface.  Keep sorted; additions append here.
REPRO_ALL = [
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
    "__version__",
    "rsc1_profile",
    "rsc2_profile",
    "run_campaign",
    "run_campaigns",
    "seed_sweep_configs",
]

BACKENDS_ALL = [
    "BackendCapabilities",
    "BackendError",
    "BackendUnavailable",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "InlineBackend",
    "LocalPoolBackend",
    "OUTCOME_KINDS",
    "TaskOutcome",
    "TaskSpec",
    "WorkQueueBackend",
    "drain_queue",
    "execute_task",
]

RESILIENCE_ALL = [
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


def test_repro_all_is_the_agreed_surface():
    assert sorted(repro.__all__) == REPRO_ALL


def test_resilience_all_is_the_agreed_surface():
    import repro.resilience

    assert sorted(repro.resilience.__all__) == RESILIENCE_ALL


def test_backends_all_is_the_agreed_surface():
    import repro.backends

    assert sorted(repro.backends.__all__) == BACKENDS_ALL
    for name in repro.backends.__all__:
        assert getattr(repro.backends, name) is not None


@pytest.mark.parametrize("name", REPRO_ALL)
def test_every_exported_name_resolves(name):
    assert getattr(repro, name) is not None


def test_lazy_exports_are_in_dir_and_cached():
    # dir() advertises lazy names even before first touch...
    listed = dir(repro)
    for name in ("CampaignPool", "LiveAnalytics", "ResilienceConfig"):
        assert name in listed
    # ...and after first access the attribute is an ordinary module global.
    pool_cls = repro.CampaignPool
    assert repro.__dict__["CampaignPool"] is pool_cls


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope


def test_lazy_exports_match_their_home_modules():
    from repro.backends import ExecutionBackend
    from repro.live.analytics import LiveAnalytics
    from repro.obs.telemetry import Telemetry
    from repro.resilience import ChaosPolicy
    from repro.runtime import CampaignPool, TraceCache, run_campaigns

    assert repro.CampaignPool is CampaignPool
    assert repro.TraceCache is TraceCache
    assert repro.run_campaigns is run_campaigns
    assert repro.LiveAnalytics is LiveAnalytics
    assert repro.Telemetry is Telemetry
    assert repro.ChaosPolicy is ChaosPolicy
    assert repro.ExecutionBackend is ExecutionBackend


def test_run_options_is_frozen():
    opts = repro.RunOptions()
    assert dataclasses.is_dataclass(opts)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.workers = 4
    # Evolution happens through replace(), never mutation.
    assert opts.replace(workers=4).workers == 4
    assert opts.workers is None


def test_subpackage_all_members_resolve():
    import repro.obs
    import repro.resilience
    import repro.runtime

    for module in (repro.obs, repro.resilience, repro.runtime):
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)
