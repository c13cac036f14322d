import pytest

from repro import CampaignConfig, ClusterSpec, run_campaign
from repro.analysis.check_introduction import check_introduction_effect
from repro.cluster.components import ComponentType


@pytest.fixture(scope="module")
def mount_heavy_trace():
    """A campaign where mount failures are frequent and the mount check
    only exists for the second half — Observation 6's laboratory."""
    spec = ClusterSpec(
        name="RSC-1-mounts",
        n_nodes=32,
        component_rates={
            ComponentType.FILESYSTEM_MOUNT: 50.0,  # per 1000 node-days
            ComponentType.GPU: 5.0,
        },
        campaign_days=30,
        lemon_fraction=0.0,
        enable_episodic_regimes=False,
        mount_check_introduced_frac=0.5,
    )
    return run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=30, seed=9)
    )


def test_introduction_time_from_metadata(mount_heavy_trace):
    effect = check_introduction_effect(mount_heavy_trace, "filesystem_mounts")
    assert effect.introduced_day == pytest.approx(15.0, abs=0.01)


def test_mode_invisible_before_check(mount_heavy_trace):
    effect = check_introduction_effect(mount_heavy_trace, "filesystem_mounts")
    assert effect.attributed_before == 0.0
    assert effect.attributed_after > 0.0
    assert effect.apparent_rate_increase == float("inf")


def test_underlying_mode_existed_before_the_check(mount_heavy_trace):
    """The failure mode predates its check — it was simply unseen,
    surfacing as unattributed NODE_FAILs."""
    effect = check_introduction_effect(mount_heavy_trace, "filesystem_mounts")
    assert effect.mode_incidents_before > 0.0
    # Heartbeat-only incidents drop once the check can name the mode.
    assert effect.unattributed_after < effect.unattributed_before


def test_underlying_rate_roughly_stationary(mount_heavy_trace):
    """The hazard didn't change — only its visibility did."""
    effect = check_introduction_effect(mount_heavy_trace, "filesystem_mounts")
    ratio = effect.mode_incidents_after / effect.mode_incidents_before
    assert 0.5 < ratio < 2.0


def test_unknown_check_raises(mount_heavy_trace):
    with pytest.raises(ValueError, match="never fired"):
        check_introduction_effect(mount_heavy_trace, "no_such_check")


def test_render(mount_heavy_trace):
    text = check_introduction_effect(
        mount_heavy_trace, "filesystem_mounts"
    ).render()
    assert "Observation 6" in text
    assert "before check" in text


def test_obs6_paper_claim_on_a_larger_campaign():
    """Observation 6 on a 48-node, 40-day mount-heavy campaign (paper:
    'a new health check ... has a tendency to cause an apparent increase
    in failure rate simply because we suddenly are able to see a failure
    mode that was likely previously present')."""
    spec = ClusterSpec(
        name="RSC-1-mounts",
        n_nodes=48,
        component_rates={
            ComponentType.FILESYSTEM_MOUNT: 40.0,
            ComponentType.GPU: 5.0,
        },
        campaign_days=40,
        lemon_fraction=0.0,
        enable_episodic_regimes=False,
        mount_check_introduced_frac=0.5,
    )
    trace = run_campaign(
        CampaignConfig(cluster_spec=spec, duration_days=40, seed=66)
    )
    effect = check_introduction_effect(trace, "filesystem_mounts")
    # Invisible before, visible after.
    assert effect.attributed_before == 0.0
    assert effect.attributed_after > 0.0
    # The hazard itself did not change.
    ratio = effect.mode_incidents_after / effect.mode_incidents_before
    assert 0.5 < ratio < 2.0
    # Heartbeat-only NODE_FAILs shrink once the mode has a name.
    assert effect.unattributed_after < effect.unattributed_before
