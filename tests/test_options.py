"""RunOptions: the one execution-strategy surface and its validation."""

import dataclasses
import warnings

import pytest

from repro import (
    CampaignConfig,
    ClusterSpec,
    DEFAULT_OPTIONS,
    RunOptions,
    run_campaign,
    run_campaigns,
)


def test_fields():
    assert [f.name for f in dataclasses.fields(RunOptions)] == [
        "telemetry",
        "cache",
        "cache_dir",
        "workers",
        "resilience",
        "checkpoint_dir",
        "backend",
        "backend_options",
    ]


def test_removed_keywords_are_rejected():
    """The pre-RunOptions keywords are gone, not silently ignored."""
    spec = ClusterSpec.rsc1_like(n_nodes=8, campaign_days=2)
    config = CampaignConfig(cluster_spec=spec, duration_days=2, seed=5)
    with pytest.raises(TypeError):
        RunOptions(use_columns=False)
    with pytest.raises(TypeError):
        run_campaign(config, telemetry=None)
    with pytest.raises(TypeError):
        run_campaigns([config], max_workers=1)


def test_run_options_validation():
    with pytest.raises(ValueError):
        RunOptions(workers=0)
    assert RunOptions(workers=1).workers == 1


def test_resolved_cache_materialization(tmp_path):
    from repro.runtime import TraceCache

    assert RunOptions(cache=False).resolved_cache() is None
    cache = TraceCache(root=tmp_path)
    assert RunOptions(cache=cache).resolved_cache() is cache
    default = RunOptions(cache_dir=str(tmp_path)).resolved_cache()
    assert isinstance(default, TraceCache)
    assert default.root == tmp_path


def test_backend_field_defaults():
    assert RunOptions().backend == "local-pool"
    assert RunOptions().backend_options is None
    assert DEFAULT_OPTIONS.backend == "local-pool"


def test_backend_field_validation():
    with pytest.raises(ValueError, match="non-empty backend name"):
        RunOptions(backend="")
    with pytest.raises(ValueError, match="non-empty backend name"):
        RunOptions(backend=3)


def test_backend_options_normalized_to_plain_dict():
    from types import MappingProxyType

    opts = RunOptions(backend_options=MappingProxyType({"root": "/q"}))
    assert type(opts.backend_options) is dict
    assert opts.backend_options == {"root": "/q"}


def test_inline_backend_worker_conflict_warns_exactly_once():
    """Satellite contract: backend='inline' plus workers>1 is a real
    conflict (inline is serial) — exactly one DeprecationWarning, then
    the pool forces workers=1."""
    from repro import CampaignPool

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pool = CampaignPool(options=RunOptions(backend="inline", workers=2))
    deprecations = [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    assert len(deprecations) == 1
    message = str(deprecations[0].message)
    assert message.startswith(
        "CampaignPool: max_workers=2 conflicts with backend='inline'"
    )
    assert pool.max_workers == 1

    # No conflict, no warning: unset or already-serial worker counts.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        CampaignPool(options=RunOptions(backend="inline"))
        CampaignPool(options=RunOptions(backend="inline", workers=1))
        CampaignPool(options=RunOptions(backend="local-pool", workers=2))
