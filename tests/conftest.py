"""Shared fixtures: scaled-down campaign traces, reused across test modules.

Campaigns are session-scoped because a 40-day, 64-node simulation takes a
few seconds; every analysis test reads the same immutable trace.

``HYPOTHESIS_PROFILE=ci`` selects the Hypothesis profile CI runs under:
derandomized, so a property failure in CI replays locally with the same
examples, and printing the reproduction blob of a failing example.
Without it the default (randomized) profile applies.
"""

import os

import pytest
from hypothesis import settings

from repro import CampaignConfig, ClusterSpec, run_campaign
from repro.sim.rng import RngStreams

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def rsc1_trace():
    """A 64-node, 40-day RSC-1-like campaign."""
    spec = ClusterSpec.rsc1_like(n_nodes=64, campaign_days=40)
    config = CampaignConfig(cluster_spec=spec, duration_days=40, seed=7)
    return run_campaign(config)


@pytest.fixture(scope="session")
def rsc2_trace():
    """A 48-node, 30-day RSC-2-like campaign."""
    spec = ClusterSpec.rsc2_like(n_nodes=48, campaign_days=30)
    config = CampaignConfig(cluster_spec=spec, duration_days=30, seed=11)
    return run_campaign(config)


@pytest.fixture()
def rngs():
    return RngStreams(1234)
