"""Shared fixtures for the backend suite: one tiny sweep, one set of
reference digests produced by the serial in-process (inline) path.

Every parity test in this package reduces to "does backend X reproduce
exactly these digests" — the reference is computed once per session by
a one-worker pool, which runs on the inline backend.
"""

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions
from repro.runtime import CampaignPool, seed_sweep_configs, trace_digest


@pytest.fixture(scope="session")
def tiny_configs():
    spec = ClusterSpec.rsc1_like(n_nodes=8, campaign_days=2)
    base = CampaignConfig(cluster_spec=spec, duration_days=2)
    return seed_sweep_configs(base, range(4))


@pytest.fixture(scope="session")
def tiny_digests(tiny_configs):
    traces = CampaignPool(options=RunOptions(workers=1, cache=False)).run(
        tiny_configs
    )
    return [trace_digest(t) for t in traces]
