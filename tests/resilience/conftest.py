"""Shared fixtures for the resilience suite: tiny sweeps + their digests.

Everything here is deliberately small (8 nodes, 2 days): the suite's
assertions are about *recovery machinery*, not statistics, and each
chaos scenario re-simulates the sweep several times.
"""

import pytest

from repro import CampaignConfig, ClusterSpec, RunOptions
from repro.runtime import CampaignPool, seed_sweep_configs, trace_digest


@pytest.fixture(scope="session")
def tiny_configs():
    spec = ClusterSpec.rsc1_like(n_nodes=8, campaign_days=2)
    base = CampaignConfig(cluster_spec=spec, duration_days=2)
    return seed_sweep_configs(base, range(3))


@pytest.fixture(scope="session")
def tiny_digests(tiny_configs):
    """Fault-free reference digests (the determinism oracle)."""
    traces = CampaignPool(options=RunOptions(workers=1, cache=False)).run(
        tiny_configs
    )
    return [trace_digest(t) for t in traces]
