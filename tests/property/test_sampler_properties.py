"""Table-driven workload sampling equals the ``Generator.choice`` code, draw for draw.

``WorkloadProfile`` draws sizes, QoS tiers, outcomes and projects by
bisecting a CDF built once per profile, and durations through
``truncated_lognormal``.  The reference below is the profile's sampling
as it was before, kept verbatim: ``rng.choice`` with a fresh ``p`` on
every draw, and a rejection-sampled log-normal
(``reference_truncated_sample``) per duration.  Every comparison is ``==`` on the drawn values *and* on
``rng.bit_generator.state``, so a sampler that returns the right value
from a different amount of stream fails too.

Profiles: RSC-1, RSC-2, their ``restricted_to_max_size`` variants, and
an edge profile whose duration bounds force rejection rounds, the clip
fallback at the lower bound and clipping at the upper one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngStreams
from repro.sim.timeunits import DAY, HOUR
from repro.stats.distributions import MixtureSpec, weighted_index
from repro.workload.generator import (
    LONG_RUN_MIN_GPUS,
    LONG_RUN_PROBABILITY,
    WorkloadGenerator,
)
from repro.workload.profiles import (
    MAX_WORK_SECONDS,
    SizeDurationSpec,
    WorkloadProfile,
    rsc1_profile,
    rsc2_profile,
)
from repro.workload.spec import IntendedOutcome, QosTier


# ----------------------------------------------------------------------
# the reference: the sampling code before the tables, verbatim
# ----------------------------------------------------------------------
def reference_truncated_sample(draw, minimum: float, maximum: float, size: int) -> np.ndarray:
    """Rejection-sample ``size`` values from ``draw`` within [minimum, maximum].

    ``draw(n)`` must return ``n`` i.i.d. samples.  Falls back to clipping
    after a bounded number of rounds so pathological bounds cannot hang.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    out = np.empty(0)
    for _round in range(100):
        need = size - out.size
        if need <= 0:
            break
        batch = np.asarray(draw(max(need * 2, 8)), dtype=float)
        keep = batch[(batch >= minimum) & (batch <= maximum)]
        out = np.concatenate([out, keep[:need]])
    if out.size < size:
        pad = np.clip(np.asarray(draw(size - out.size), dtype=float), minimum, maximum)
        out = np.concatenate([out, pad])
    return out


def reference_sample_lognormal(rng, median, sigma, size=1, minimum=0.0, maximum=float("inf")):
    """A median-parameterized truncated log-normal sample."""
    if median <= 0:
        raise ValueError(f"median must be positive, got {median}")
    mu = float(np.log(median))
    return reference_truncated_sample(
        lambda n: rng.lognormal(mu, sigma, size=n), minimum, maximum, size
    )


def ref_sample_size(self, rng):
    return int(rng.choice(self.size_mixture.values(), size=1, p=self.size_mixture.probabilities())[0])


def ref_sample_work_seconds(self, size, rng):
    spec = self.durations[size]
    hours = reference_sample_lognormal(
        rng,
        median=spec.median_hours,
        sigma=spec.sigma,
        minimum=1.0 / 60.0,  # at least a minute of work
        maximum=MAX_WORK_SECONDS / HOUR,
    )[0]
    return float(hours * HOUR)


def ref_sample_qos(self, size, rng):
    if size >= self.large_size_threshold:
        probs = self.qos_large_probs
    elif size >= self.medium_size_threshold:
        probs = self.qos_medium_probs
    else:
        probs = self.qos_small_probs
    tier = rng.choice(3, p=np.asarray(probs))
    return (QosTier.LOW, QosTier.NORMAL, QosTier.HIGH)[int(tier)]


def ref_sample_outcome(self, rng):
    outcomes = list(self.outcome_probabilities)
    probs = np.asarray([self.outcome_probabilities[o] for o in outcomes])
    return outcomes[int(rng.choice(len(outcomes), p=probs / probs.sum()))]


def ref_sample_project(self, rng):
    ranks = np.arange(1, self.n_projects + 1, dtype=float)
    probs = ranks**-1.2
    probs /= probs.sum()
    return f"project-{int(rng.choice(self.n_projects, p=probs)):02d}"


def reference_calibrated_rate_per_day(gen, rng, n_samples=20_000):
    """``WorkloadGenerator._calibrated_rate_per_day`` over the reference samplers."""
    profile = gen.profile
    total = 0.0
    for _ in range(n_samples):
        size = ref_sample_size(profile, rng)
        work = ref_sample_work_seconds(profile, size, rng)
        outcome = ref_sample_outcome(profile, rng)
        effective = work
        if outcome in (
            IntendedOutcome.FAILED_USER,
            IntendedOutcome.CANCELLED,
        ):
            effective = work * float(rng.uniform(0.05, 1.0))
        elif outcome is IntendedOutcome.OOM:
            effective = work * float(rng.uniform(0.01, 0.3))
        elif outcome is IntendedOutcome.TIMEOUT:
            effective = work * float(rng.uniform(0.4, 0.9))
        total += size * effective
        if (
            outcome is IntendedOutcome.COMPLETED
            and size >= LONG_RUN_MIN_GPUS
            and rng.random() < LONG_RUN_PROBABILITY
        ):
            for _segment in range(int(rng.integers(1, 4))):
                total += 0.6 * size * ref_sample_work_seconds(profile, size, rng)
    mean_gpu_seconds = total / n_samples
    capacity_gpu_seconds_per_day = gen.cluster_gpus * DAY
    return gen.target_utilization * capacity_gpu_seconds_per_day / mean_gpu_seconds


# ----------------------------------------------------------------------
# profiles under test
# ----------------------------------------------------------------------
def _edge_profile():
    """Duration bounds that force every branch of the rejection loop.

    Size 1 sits far below the one-minute floor: all 100 rounds reject and
    the clipped fallback draw is returned.  Size 8 straddles the floor, so
    draws often need a second or third round.  Size 64 sits far above the
    6.5-day cap, so it always takes the fallback and clips to the cap.
    Outcome and QoS weights include zeros (ties in the CDF).
    """
    return WorkloadProfile(
        name="edge",
        size_mixture=MixtureSpec.from_dict({1: 0.3, 8: 0.5, 16: 0.0, 64: 0.2}),
        durations={
            1: SizeDurationSpec(1e-6, 0.1),
            8: SizeDurationSpec(1.0 / 200.0, 0.8),
            16: SizeDurationSpec(1.0, 1.0),
            64: SizeDurationSpec(1e6, 0.1),
        },
        outcome_probabilities={
            IntendedOutcome.COMPLETED: 0.5,
            IntendedOutcome.FAILED_USER: 0.0,
            IntendedOutcome.CANCELLED: 0.5,
        },
        qos_small_probs=(0.0, 1.0, 0.0),
        qos_medium_probs=(0.25, 0.25, 0.5),
        medium_size_threshold=8,
        large_size_threshold=64,
        n_projects=1,
    )


PROFILES = {
    "rsc1": rsc1_profile,
    "rsc2": rsc2_profile,
    "rsc1_max64": lambda: rsc1_profile().restricted_to_max_size(64),
    "rsc1_max1024": lambda: rsc1_profile().restricted_to_max_size(1024),
    "rsc2_max8": lambda: rsc2_profile().restricted_to_max_size(8),
    "edge": _edge_profile,
}


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    assert a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# the draw orders the generator uses
# ----------------------------------------------------------------------
def _calibration_draw(profile, rng, samplers):
    size_fn, work_fn, _qos_fn, outcome_fn, _project_fn = samplers
    size = size_fn(profile, rng)
    work = work_fn(profile, size, rng)
    outcome = outcome_fn(profile, rng)
    extra = work_fn(profile, size, rng) if rng.random() < 0.5 else None
    return size, work, outcome, extra


def _spec_draw(profile, rng, samplers):
    size_fn, work_fn, qos_fn, outcome_fn, project_fn = samplers
    size = size_fn(profile, rng)
    work = work_fn(profile, size, rng)
    qos = qos_fn(profile, size, rng)
    outcome = outcome_fn(profile, rng)
    fraction = float(rng.uniform(0.05, 1.0))
    project = project_fn(profile, rng)
    return size, work, qos, outcome, fraction, project


REFERENCE = (ref_sample_size, ref_sample_work_seconds, ref_sample_qos,
             ref_sample_outcome, ref_sample_project)
TABLES = (
    lambda p, rng: p.sample_size(rng),
    lambda p, size, rng: p.sample_work_seconds(size, rng),
    lambda p, size, rng: p.sample_qos(size, rng),
    lambda p, rng: p.sample_outcome(rng),
    lambda p, rng: p.sample_project(rng),
)


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("order", [_calibration_draw, _spec_draw])
def test_draw_orders_match_reference(name, order):
    profile = PROFILES[name]()
    for seed in (0, 1, 2025):
        ref_rng, new_rng = _pair(seed)
        for _ in range(400):
            assert order(profile, new_rng, TABLES) == order(profile, ref_rng, REFERENCE)
        _same_state(ref_rng, new_rng)


draw_ops = st.lists(
    st.tuples(
        st.sampled_from(["size", "work", "qos", "outcome", "project", "uniform"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=60,
)


@given(
    name=st.sampled_from(sorted(PROFILES)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ops=draw_ops,
)
@settings(deadline=None, max_examples=200)
def test_interleaved_draws_match_reference(name, seed, ops):
    """Any interleaving, any size class, leaves the same values and stream."""
    profile = PROFILES[name]()
    sizes = sorted(int(s) for s in profile.size_mixture.values())
    ref_rng, new_rng = _pair(seed)
    for op, pick in ops:
        size = sizes[pick % len(sizes)]
        if op == "size":
            assert profile.sample_size(new_rng) == ref_sample_size(profile, ref_rng)
        elif op == "work":
            assert profile.sample_work_seconds(size, new_rng) == ref_sample_work_seconds(
                profile, size, ref_rng
            )
        elif op == "qos":
            # any size, not only the mixture's: thresholds pick the triple
            assert profile.sample_qos(pick, new_rng) is ref_sample_qos(profile, pick, ref_rng)
        elif op == "outcome":
            assert profile.sample_outcome(new_rng) is ref_sample_outcome(profile, ref_rng)
        elif op == "project":
            assert profile.sample_project(new_rng) == ref_sample_project(profile, ref_rng)
        else:
            assert new_rng.random() == ref_rng.random()
        _same_state(ref_rng, new_rng)


def test_edge_profile_reaches_every_rejection_branch():
    """The edge profile really takes the fallback, clips high, and retries."""
    profile = _edge_profile()
    rng = np.random.default_rng(3)
    assert profile.sample_work_seconds(1, rng) == 60.0  # clipped to the floor
    assert profile.sample_work_seconds(64, rng) == MAX_WORK_SECONDS
    calls = []

    class Counting:
        def lognormal(self, mu, sigma, size):
            calls.append(size)
            return rng.lognormal(mu, sigma, size=size)

    for _ in range(200):
        profile.sample_work_seconds(8, Counting())
    rounds_per_draw = len(calls) / 200
    assert 1.0 < rounds_per_draw < 100.0
    assert set(calls) == {8}


@pytest.mark.parametrize("size", [0, 1, 5, 64])
def test_mixture_and_zipf_sample_match_choice(size):
    mixture = MixtureSpec.from_dict({1: 2.0, 8: 0.0, 64: 1.0, 512: 0.25})
    for seed in range(5):
        ref_rng, new_rng = _pair(seed)
        got = mixture.values()[
            [weighted_index(mixture.cdf, new_rng) for _ in range(size)]
        ]
        want = ref_rng.choice(mixture.values(), size=size, p=mixture.probabilities())
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        _same_state(ref_rng, new_rng)


# ----------------------------------------------------------------------
# exact boundaries, which random draws essentially never hit
# ----------------------------------------------------------------------
def choice_internal_cdf(p):
    """The array ``Generator.choice(a, p=p)`` searches with ``side="right"``."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def reference_p(profile):
    """Every ``p`` the reference samplers hand to ``rng.choice``."""
    outcomes = list(profile.outcome_probabilities)
    outcome_p = np.asarray([profile.outcome_probabilities[o] for o in outcomes])
    ranks = np.arange(1, profile.n_projects + 1, dtype=float)
    project_p = ranks**-1.2
    project_p /= project_p.sum()
    return {
        "size": profile.size_mixture.probabilities(),
        "qos_small": np.asarray(profile.qos_small_probs),
        "qos_medium": np.asarray(profile.qos_medium_probs),
        "qos_large": np.asarray(profile.qos_large_probs),
        "outcome": outcome_p / outcome_p.sum(),
        "project": project_p,
    }


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_tables_equal_the_cdfs_choice_searches(name):
    profile = PROFILES[name]()
    small, medium, large = profile._qos_cdfs
    tables = {
        "size": profile._size_table[1],
        "qos_small": small,
        "qos_medium": medium,
        "qos_large": large,
        "outcome": profile._outcome_table[1],
        "project": profile._project_table[1],
    }
    for key, p in reference_p(profile).items():
        assert list(tables[key]) == choice_internal_cdf(p).tolist(), key


class ScriptedRng:
    """Stands in for a Generator: replays fixed uniforms and lognormal batches."""

    def __init__(self, uniforms=(), batches=()):
        self.uniforms = list(uniforms)
        self.batches = [np.asarray(b, dtype=float) for b in batches]
        self.sizes = []

    def random(self):
        return self.uniforms.pop(0)

    def lognormal(self, mu, sigma, size):
        self.sizes.append(size)
        return self.batches.pop(0)[:size]


def test_weighted_index_matches_searchsorted_at_every_boundary():
    from repro.stats.distributions import choice_cdf, weighted_index

    for p in ([0.2, 0.0, 0.3, 0.5], [1.0, 0.0], [0.0, 0.0, 1.0], [1 / 3] * 3):
        cdf = choice_cdf(p)
        array = choice_internal_cdf(p)
        points = {0.0}
        for edge in cdf:
            points.update({edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)})
        for u in sorted(x for x in points if 0.0 <= x < 1.0):
            want = int(array.searchsorted(u, side="right"))
            assert weighted_index(cdf, ScriptedRng(uniforms=[u])) == want


LO, HI = 1.0 / 60.0, MAX_WORK_SECONDS / HOUR


@pytest.mark.parametrize(
    "batches",
    [
        [[LO] + [0.0] * 7],  # exactly the floor is kept
        [[HI] + [0.0] * 7],  # exactly the cap is kept
        [[0.0] * 7 + [np.nextafter(LO, 0.0)], [np.nextafter(HI, 1e9), LO * 2] + [0.0] * 6],
        [[0.0] * 8] * 100 + [[HI * 2]],  # the clipped fallback
        [[0.0] * 8] * 100 + [[np.nextafter(LO, 0.0)]],
        [[0.0] * 8] * 99 + [[0.0] * 7 + [HI]],  # kept on the last round
    ],
)
def test_truncated_lognormal_matches_truncated_sample_on_scripted_draws(batches):
    from repro.stats.distributions import truncated_lognormal

    new, ref = ScriptedRng(batches=batches), ScriptedRng(batches=batches)
    got = truncated_lognormal(new, 0.0, 1.0, LO, HI)
    want = reference_truncated_sample(
        lambda n: ref.lognormal(0.0, 1.0, size=n), LO, HI, 1
    )[0]
    assert got == want
    assert new.sizes == ref.sizes


# ----------------------------------------------------------------------
# the calibrated arrival rate
# ----------------------------------------------------------------------
def test_constructor_calibration_matches_reference():
    """The rate a 512-node RSC-1 generator calibrates to, at full sample count."""
    gen = WorkloadGenerator(rsc1_profile(), RngStreams(2025), cluster_gpus=4096)
    rng = RngStreams(2025).stream("workload.calibration.RSC-1")
    assert gen.jobs_per_day == reference_calibrated_rate_per_day(gen, rng)


@pytest.mark.parametrize("profile_fn", [rsc1_profile, rsc2_profile])
@pytest.mark.parametrize("cluster_gpus", [8, 4096, 16384])
@pytest.mark.parametrize("seed", [7, 901])
def test_calibration_matches_reference(profile_fn, cluster_gpus, seed):
    gen = WorkloadGenerator(profile_fn(), RngStreams(0), cluster_gpus=cluster_gpus)
    new_rng, ref_rng = _pair(seed)
    gen._calibration_rng = new_rng
    got = gen._calibrated_rate_per_day(n_samples=1500)
    assert got == reference_calibrated_rate_per_day(gen, ref_rng, n_samples=1500)
    _same_state(ref_rng, new_rng)
