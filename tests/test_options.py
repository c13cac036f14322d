"""RunOptions: the one execution-strategy surface and its validation."""

import dataclasses

import pytest

from repro import (
    Campaign,
    CampaignConfig,
    ClusterSpec,
    DEFAULT_OPTIONS,
    RunOptions,
    run_campaign,
    run_campaigns,
)
from repro.runtime import CampaignPool


def test_fields():
    assert [f.name for f in dataclasses.fields(RunOptions)] == [
        "telemetry",
        "cache",
        "workers",
        "resilience",
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
    with pytest.raises(TypeError):
        RunOptions(cache_dir="/tmp")
    with pytest.raises(TypeError):
        CampaignPool(max_workers=1)
    with pytest.raises(TypeError):
        Campaign(config, telemetry=None)


def test_run_options_validation():
    with pytest.raises(ValueError):
        RunOptions(workers=0)
    assert RunOptions(workers=1).workers == 1


def test_resolved_cache_materialization(tmp_path):
    from repro.runtime import TraceCache

    assert RunOptions(cache=False).resolved_cache() is None
    cache = TraceCache(root=tmp_path)
    assert RunOptions(cache=cache).resolved_cache() is cache


def test_backend_field_defaults():
    assert RunOptions().backend == "local-pool"
    assert RunOptions().backend_options is None
    assert DEFAULT_OPTIONS.backend == "local-pool"


def test_backend_field_validation():
    with pytest.raises(ValueError, match="inline, local-pool, work-queue"):
        RunOptions(backend="")
    with pytest.raises(ValueError, match="inline, local-pool, work-queue"):
        RunOptions(backend=3)
    with pytest.raises(ValueError, match="unknown execution backend 'locl-pool'"):
        RunOptions(backend="locl-pool")
    # The sweep layer's spelling keeps working.
    opts = RunOptions(backend="local-pool", workers=2, cache=False)
    assert (opts.backend, opts.workers, opts.cache) == ("local-pool", 2, False)


def test_backend_options_normalized_to_plain_dict():
    from types import MappingProxyType

    opts = RunOptions(backend_options=MappingProxyType({"root": "/q"}))
    assert type(opts.backend_options) is dict
    assert opts.backend_options == {"root": "/q"}
