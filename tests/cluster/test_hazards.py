import numpy as np
import pytest

from repro.cluster.components import ComponentType
from repro.cluster.hazards import (
    ComponentHazard,
    HazardModel,
    HazardRegime,
    LemonSpec,
    RSC1_COMPONENT_RATES,
    RSC2_COMPONENT_RATES,
)


def make_model(**kwargs):
    return HazardModel.from_rates(
        {ComponentType.GPU: 2.0, ComponentType.IB_LINK: 1.0}, **kwargs
    )


def test_baseline_total_rate_sums_components():
    model = make_model()
    assert model.baseline_total_rate() == pytest.approx(3.0 / 1000.0)


def test_component_rate_per_day_units():
    model = make_model()
    assert model.component_rate(0, ComponentType.GPU, 0.0) == pytest.approx(0.002)


def test_regime_multiplies_rate_only_in_window():
    regime = HazardRegime(
        name="bug", component=ComponentType.GPU, multiplier=5.0, start=10.0, end=20.0
    )
    model = make_model(regimes=[regime])
    assert model.component_rate(0, ComponentType.GPU, 5.0) == pytest.approx(0.002)
    assert model.component_rate(0, ComponentType.GPU, 15.0) == pytest.approx(0.010)
    assert model.component_rate(0, ComponentType.GPU, 20.0) == pytest.approx(0.002)


def test_regime_scoped_to_node_subset():
    regime = HazardRegime(
        name="spike",
        component=ComponentType.IB_LINK,
        multiplier=100.0,
        start=0.0,
        end=100.0,
        node_ids=frozenset({3}),
    )
    model = make_model(regimes=[regime])
    assert model.component_rate(3, ComponentType.IB_LINK, 1.0) == pytest.approx(0.1)
    assert model.component_rate(4, ComponentType.IB_LINK, 1.0) == pytest.approx(0.001)


def test_lemon_multiplies_only_its_component():
    lemon = LemonSpec(node_id=1, component=ComponentType.GPU, multiplier=50.0)
    model = make_model(lemons=[lemon])
    assert model.component_rate(1, ComponentType.GPU, 0.0) == pytest.approx(0.1)
    assert model.component_rate(1, ComponentType.IB_LINK, 0.0) == pytest.approx(0.001)
    assert model.is_lemon(1) and not model.is_lemon(0)


def test_duplicate_lemon_rejected():
    lemon = LemonSpec(node_id=1, component=ComponentType.GPU, multiplier=2.0)
    with pytest.raises(ValueError, match="duplicate"):
        make_model(lemons=[lemon, lemon])


def test_lemon_multiplier_below_one_rejected():
    with pytest.raises(ValueError):
        LemonSpec(node_id=0, component=ComponentType.GPU, multiplier=0.5)


def test_sample_component_respects_weights():
    model = HazardModel.from_rates(
        {ComponentType.GPU: 99.0, ComponentType.IB_LINK: 1.0}
    )
    rng = np.random.default_rng(0)
    draws = [model.sample_component(0, 0.0, rng) for _ in range(500)]
    gpu_frac = sum(1 for d in draws if d is ComponentType.GPU) / len(draws)
    assert gpu_frac > 0.95


def test_regime_boundaries_sorted_unique():
    regimes = [
        HazardRegime("a", ComponentType.GPU, 2.0, 10.0, 20.0),
        HazardRegime("b", ComponentType.IB_LINK, 2.0, 10.0, 30.0),
    ]
    model = make_model(regimes=regimes)
    assert model.regime_boundaries() == [10.0, 20.0, 30.0]


def test_invalid_regime_window():
    with pytest.raises(ValueError):
        HazardRegime("x", ComponentType.GPU, 1.0, 5.0, 5.0)


def test_rsc_profiles_match_paper_rf():
    assert sum(RSC1_COMPONENT_RATES.values()) == pytest.approx(6.50, abs=0.01)
    assert sum(RSC2_COMPONENT_RATES.values()) == pytest.approx(2.34, abs=0.01)


def test_component_hazard_validation():
    with pytest.raises(ValueError):
        ComponentHazard(rate_per_kiloday=-1.0, transient_probability=0.5)
    with pytest.raises(ValueError):
        ComponentHazard(rate_per_kiloday=1.0, transient_probability=1.5)
