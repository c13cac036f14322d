"""Workload profiles: the calibrated stand-ins for RSC-1 and RSC-2 logs.

Each profile declares the marginal distributions the paper publishes:

* **Size mixture** (Fig. 6): >40% 1-GPU jobs; RSC-1 leans 8-GPU and hosts
  the largest jobs (to 4096 GPUs, <1% of jobs, ~12% of GPU time); RSC-2
  leans 1-GPU and tops out around 1k GPUs.  Over 90% of jobs are at most
  one server but draw <10% of GPU time; 256+ GPU jobs draw ~66% (RSC-1) /
  ~52% (RSC-2).
* **Durations** by size: log-normal, larger jobs run longer, truncated at
  6.5 days (the 7-day lifetime cap forces anything longer to be submitted
  as a chain of jobs).
* **Intended outcomes** (Fig. 3): most jobs complete; ~a quarter fail from
  user bugs; cancellations, OOMs, and timeouts are the small remainder.
  PREEMPTED / REQUEUED / NODE_FAIL are *not* sampled — they emerge from
  scheduler and failure dynamics.
* **QoS**: large jobs run high priority (the paper: "large jobs tend to be
  higher priority and small jobs are the lowest priority").

Every draw reads a table built once per profile (``cached_property``, not
a field, so ``==`` and ``config_digest`` do not see it) and returns what
``Generator.choice`` over the same probabilities, or the rejection-sampled
log-normal for durations, would return from the same stream state,
consuming the same draws (``docs/PERFORMANCE.md``, "Workload sampling").
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from repro.stats.distributions import (
    MixtureSpec,
    choice_cdf,
    truncated_lognormal,
    weighted_index,
)
from repro.workload.spec import IntendedOutcome, QosTier
from repro.sim.timeunits import HOUR, DAY

#: Hard cap on sampled work; keeps every job under the 7-day lifetime.
MAX_WORK_SECONDS = 6.5 * DAY
#: Sampled work bounds in hours: at least a minute, at most the cap.
_MIN_WORK_HOURS = 1.0 / 60.0
_MAX_WORK_HOURS = MAX_WORK_SECONDS / HOUR
#: ``Generator.choice`` rejects ``p`` whose sum is further than this from 1.
_CHOICE_ATOL = math.sqrt(sys.float_info.epsilon)
_QOS_TIERS = (QosTier.LOW, QosTier.NORMAL, QosTier.HIGH)


def _finite_non_negative(values) -> bool:
    return all(0 <= v < math.inf for v in values)


@dataclass(frozen=True)
class SizeDurationSpec:
    """Log-normal duration parameters for one job-size class."""

    median_hours: float
    sigma: float

    def __post_init__(self):
        if self.median_hours <= 0:
            raise ValueError("median_hours must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def mean_hours(self) -> float:
        """Untruncated log-normal mean (used for arrival-rate calibration)."""
        return self.median_hours * float(np.exp(self.sigma**2 / 2))


@dataclass(frozen=True)
class WorkloadProfile:
    """Declarative generator parameters for one cluster's workload."""

    name: str
    size_mixture: MixtureSpec
    durations: Dict[int, SizeDurationSpec]
    outcome_probabilities: Dict[IntendedOutcome, float]
    #: (low, normal, high) QoS probabilities by size class boundary
    qos_small_probs: Tuple[float, float, float] = (0.60, 0.40, 0.0)
    qos_medium_probs: Tuple[float, float, float] = (0.0, 0.70, 0.30)
    qos_large_probs: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    medium_size_threshold: int = 64
    large_size_threshold: int = 512
    n_projects: int = 30

    def __post_init__(self):
        sizes = set(int(v) for v in self.size_mixture.values())
        missing = sizes - set(self.durations)
        if missing:
            raise ValueError(f"profile {self.name}: no duration spec for sizes {missing}")
        if not _finite_non_negative(self.outcome_probabilities.values()):
            raise ValueError(
                f"profile {self.name}: outcome probabilities must be finite "
                f"and non-negative: {self.outcome_probabilities}"
            )
        total = sum(self.outcome_probabilities.values())
        if not 0.999 < total < 1.001:
            raise ValueError(
                f"profile {self.name}: outcome probabilities sum to {total}, expected 1"
            )
        for probs in (self.qos_small_probs, self.qos_medium_probs, self.qos_large_probs):
            if (
                len(probs) != 3
                or not _finite_non_negative(probs)
                or abs(math.fsum(probs) - 1.0) > _CHOICE_ATOL
            ):
                raise ValueError(
                    "QoS probabilities must be a 3-tuple of finite, non-negative "
                    f"values summing to 1: {probs}"
                )
        if self.n_projects < 1:
            raise ValueError(f"profile {self.name}: n_projects must be positive")

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_size(self, rng: np.random.Generator) -> int:
        sizes, cdf = self._size_table
        return sizes[weighted_index(cdf, rng)]

    def sample_work_seconds(self, size: int, rng: np.random.Generator) -> float:
        mu, sigma = self._duration_params[size]
        hours = truncated_lognormal(rng, mu, sigma, _MIN_WORK_HOURS, _MAX_WORK_HOURS)
        return hours * HOUR

    def sample_qos(self, size: int, rng: np.random.Generator) -> QosTier:
        small, medium, large = self._qos_cdfs
        if size >= self.large_size_threshold:
            cdf = large
        elif size >= self.medium_size_threshold:
            cdf = medium
        else:
            cdf = small
        return _QOS_TIERS[weighted_index(cdf, rng)]

    def sample_outcome(self, rng: np.random.Generator) -> IntendedOutcome:
        outcomes, cdf = self._outcome_table
        return outcomes[weighted_index(cdf, rng)]

    def sample_project(self, rng: np.random.Generator) -> str:
        names, cdf = self._project_table
        return names[weighted_index(cdf, rng)]

    # sampling tables, built on first draw --------------------------------
    @cached_property
    def _size_table(self) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        mixture = self.size_mixture
        return tuple(int(v) for v in mixture.values()), mixture.cdf

    @cached_property
    def _duration_params(self) -> Dict[int, Tuple[float, float]]:
        """size -> (mu, sigma) of its log-normal, in hours."""
        return {
            size: (float(np.log(spec.median_hours)), spec.sigma)
            for size, spec in self.durations.items()
        }

    @cached_property
    def _qos_cdfs(self) -> Tuple[Tuple[float, ...], ...]:
        return tuple(
            choice_cdf(probs)
            for probs in (self.qos_small_probs, self.qos_medium_probs, self.qos_large_probs)
        )

    @cached_property
    def _outcome_table(self) -> Tuple[Tuple[IntendedOutcome, ...], Tuple[float, ...]]:
        outcomes = tuple(self.outcome_probabilities)
        probs = np.asarray([self.outcome_probabilities[o] for o in outcomes])
        return outcomes, choice_cdf(probs / probs.sum())

    @cached_property
    def _project_table(self) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
        # Zipf-ish project popularity: a few teams dominate submissions.
        ranks = np.arange(1, self.n_projects + 1, dtype=float)
        probs = ranks**-1.2
        probs /= probs.sum()
        names = tuple(f"project-{i:02d}" for i in range(self.n_projects))
        return names, choice_cdf(probs)

    # ------------------------------------------------------------------
    # analytic expectations (for calibration and Fig. 6's model series)
    # ------------------------------------------------------------------
    def expected_compute_fraction_by_size(self) -> Dict[int, float]:
        """Analytic Fig. 6 'fraction of compute' series."""
        weights: Dict[int, float] = {}
        for size, prob in zip(self.size_mixture.values(), self.size_mixture.probabilities()):
            size = int(size)
            weights[size] = prob * size * self.durations[size].mean_hours()
        total = sum(weights.values())
        return {s: w / total for s, w in sorted(weights.items())}

    def expected_job_fraction_by_size(self) -> Dict[int, float]:
        """Analytic Fig. 6 'fraction of jobs' series."""
        return {
            int(s): float(p)
            for s, p in zip(
                self.size_mixture.values(), self.size_mixture.probabilities()
            )
        }

    def max_size(self) -> int:
        return int(max(self.size_mixture.values()))

    def restricted_to_max_size(self, max_gpus: int) -> "WorkloadProfile":
        """Drop sizes above ``max_gpus`` (for scaled-down clusters)."""
        kept = {
            int(v): w
            for (v, w) in self.size_mixture.weights
            if int(v) <= max_gpus
        }
        if not kept:
            raise ValueError(f"no job sizes fit within {max_gpus} GPUs")
        return WorkloadProfile(
            name=self.name,
            size_mixture=MixtureSpec.from_dict(kept),
            durations=self.durations,
            outcome_probabilities=self.outcome_probabilities,
            qos_small_probs=self.qos_small_probs,
            qos_medium_probs=self.qos_medium_probs,
            qos_large_probs=self.qos_large_probs,
            medium_size_threshold=self.medium_size_threshold,
            large_size_threshold=self.large_size_threshold,
            n_projects=self.n_projects,
        )


_COMMON_OUTCOMES = {
    IntendedOutcome.COMPLETED: 0.688,
    IntendedOutcome.FAILED_USER: 0.262,
    IntendedOutcome.CANCELLED: 0.040,
    IntendedOutcome.OOM: 0.0025,
    IntendedOutcome.TIMEOUT: 0.0075,
}

# Sigmas are moderate: heavy (sigma >= 1.5) tails make a month's offered
# load swing wildly around its mean, which would make scaled-down campaign
# utilization uncontrollable.
_SMALL_DURATIONS = {
    1: SizeDurationSpec(0.4, 1.2),
    2: SizeDurationSpec(0.6, 1.2),
    4: SizeDurationSpec(0.8, 1.2),
    8: SizeDurationSpec(1.5, 1.2),
    16: SizeDurationSpec(3.0, 1.2),
    32: SizeDurationSpec(5.0, 1.2),
    64: SizeDurationSpec(8.0, 1.0),
}


def rsc1_profile() -> WorkloadProfile:
    """RSC-1: general ML (LLM-heavy), largest jobs, 8-GPU tilt."""
    mixture = MixtureSpec.from_dict(
        {
            1: 0.4405,
            2: 0.12,
            4: 0.11,
            8: 0.24,
            16: 0.03,
            32: 0.02,
            64: 0.015,
            128: 0.01,
            256: 0.008,
            512: 0.0035,
            1024: 0.0013,
            2048: 0.0005,
            4096: 0.0002,
        }
    )
    durations = dict(_SMALL_DURATIONS)
    durations.update(
        {
            128: SizeDurationSpec(12.0, 1.0),
            256: SizeDurationSpec(9.0, 1.0),
            512: SizeDurationSpec(12.0, 0.8),
            1024: SizeDurationSpec(16.0, 0.8),
            2048: SizeDurationSpec(20.0, 0.8),
            4096: SizeDurationSpec(22.0, 0.8),
        }
    )
    return WorkloadProfile(
        name="RSC-1",
        size_mixture=mixture,
        durations=durations,
        outcome_probabilities=dict(_COMMON_OUTCOMES),
    )


def rsc2_profile() -> WorkloadProfile:
    """RSC-2: vision-focused, strong 1-GPU tilt, jobs up to ~1k GPUs."""
    mixture = MixtureSpec.from_dict(
        {
            1: 0.592,
            2: 0.10,
            4: 0.08,
            8: 0.14,
            16: 0.035,
            32: 0.02,
            64: 0.012,
            128: 0.01,
            256: 0.007,
            512: 0.003,
            1024: 0.001,
        }
    )
    durations = dict(_SMALL_DURATIONS)
    durations.update(
        {
            128: SizeDurationSpec(12.0, 1.0),
            256: SizeDurationSpec(9.0, 1.0),
            512: SizeDurationSpec(12.0, 0.8),
            1024: SizeDurationSpec(16.0, 0.8),
        }
    )
    return WorkloadProfile(
        name="RSC-2",
        size_mixture=mixture,
        durations=durations,
        outcome_probabilities=dict(_COMMON_OUTCOMES),
    )
