"""The array re-arm path against the per-node hazard rate.

``HazardModel.total_rates`` arms every node at a regime boundary from a
nodes x components array; ``total_rate`` adds one node's component
rates left to right.  The failure injector needs the two bit for bit
(``==``) on every Python, across overlapping regimes, regimes scoped to
node subsets or to components outside the baseline, lemons, and
instants exactly on a regime's start or end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.components import ComponentType
from repro.cluster.hazards import HazardModel, HazardRegime, LemonSpec

N_NODES = 12
COMPONENTS = list(ComponentType)
TIMES = [0.0, 10.0, 25.0, 40.0, 55.0]

rates = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
# Products of these round, so the order they apply in shows.
multipliers = st.one_of(
    st.sampled_from([0.3, 1.1, 1.7, 3.3, 7.9]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@st.composite
def regimes(draw, index):
    start, end = sorted(
        draw(st.lists(st.sampled_from(TIMES), min_size=2, max_size=2, unique=True))
    )
    return HazardRegime(
        name=f"r{index}",
        # Few components, so regimes overlap often.
        component=draw(st.sampled_from(COMPONENTS[:2] + COMPONENTS[-1:])),
        multiplier=draw(multipliers),
        start=start,
        end=end,
        node_ids=draw(
            st.one_of(
                st.none(),
                st.frozensets(st.integers(0, N_NODES - 1), max_size=N_NODES),
            )
        ),
    )


@st.composite
def models(draw):
    # The baseline leaves some components out, so some regimes and
    # lemons name a component it does not have.
    base = draw(
        st.dictionaries(st.sampled_from(COMPONENTS[:-2]), rates, min_size=1)
    )
    n_regimes = draw(st.integers(0, 5))
    lemon_nodes = draw(st.sets(st.integers(0, N_NODES - 1), max_size=4))
    lemons = [
        LemonSpec(
            node_id=node_id,
            component=draw(st.sampled_from(COMPONENTS)),
            multiplier=draw(st.sampled_from([1.3, 2.9, 7.7, 31.1])),
        )
        for node_id in sorted(lemon_nodes)
    ]
    return HazardModel.from_rates(
        base,
        regimes=[draw(regimes(i)) for i in range(n_regimes)],
        lemons=lemons,
    )


@given(
    model=models(),
    node_ids=st.lists(st.integers(0, N_NODES - 1), max_size=2 * N_NODES),
    t=st.one_of(st.sampled_from(TIMES), st.floats(min_value=-5.0, max_value=60.0)),
)
@settings(deadline=None, max_examples=400)
def test_total_rates_equal_the_per_node_rate(model, node_ids, t):
    batch = model.total_rates(node_ids, t)
    assert len(batch) == len(node_ids)
    assert list(batch) == [model.total_rate(node_id, t) for node_id in node_ids]
    for node_id in node_ids:
        left_to_right = 0.0
        for component in model.base:
            left_to_right += model.component_rate(node_id, component, t)
        assert model.total_rate(node_id, t) == left_to_right
