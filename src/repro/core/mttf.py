"""MTTF definitions: size buckets, r_f floors, 1/N projection (Fig. 7).

Three pieces, matching the paper's Section III:

1. **Empirical MTTF by job size** — jobs are bucketed by GPU count rounded
   up to the next multiple of 8 and then to powers of two
   (:func:`size_bucket`); the bucket MTTF is total scheduled runtime over
   hardware-failure count, with a 90% Gamma confidence interval
   (:class:`MTTFBucket`).
2. **Cluster failure rate r_f** — failures per node-day over jobs larger
   than a GPU floor (the paper uses >128 GPUs so small-job noise doesn't
   contaminate the estimate; :func:`rf_floor` scales it down for small
   campaigns, for Figs. 7 and 9 and the headline numbers alike).
3. **Projection** — MTTF(N) = 1 / (N_nodes * r_f), the curve the paper
   validates against buckets from 32 to 4096 GPUs and then extrapolates to
   16k (1.8 h) and 131k (0.23 h) GPUs.

The per-bucket and r_f accumulation is
:class:`repro.core.estimators.OnlineMTTFEstimator`, which the Fig. 7
analysis folds over a trace's job records.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence

from repro.cluster.components import GPUS_PER_NODE
from repro.sim.timeunits import DAY, HOUR
from repro.stats.fitting import RateEstimate
from repro.stats.quantiles import power_of_two_bucket


@lru_cache(maxsize=1024)
def size_bucket(n_gpus: int) -> int:
    """Fig. 7's bucketing: round up to a multiple of 8, then a power of 2."""
    if n_gpus <= 0:
        raise ValueError(f"n_gpus must be positive, got {n_gpus}")
    rounded = int(math.ceil(n_gpus / GPUS_PER_NODE)) * GPUS_PER_NODE
    return power_of_two_bucket(rounded, minimum=GPUS_PER_NODE)


@dataclass(frozen=True)
class MTTFBucket:
    """Empirical MTTF for one job-size bucket."""

    gpus: int
    n_records: int
    failures: int
    runtime_hours: float
    estimate: RateEstimate  # rate per hour of job runtime

    @property
    def mttf_hours(self) -> float:
        return self.estimate.mttf

    @property
    def mttf_hours_lo(self) -> float:
        return self.estimate.mttf_lo

    @property
    def mttf_hours_hi(self) -> float:
        return self.estimate.mttf_hi


def rf_floor(largest_gpus: int) -> int:
    """The r_f GPU floor: 128 GPUs, or half the largest job (at least
    8) when the campaign never runs a job above 128 GPUs."""
    if largest_gpus <= 128:
        return max(8, largest_gpus // 2)
    return 128


def project_mttf(
    n_gpus: int,
    failure_rate_per_node_day: float,
) -> float:
    """Theoretical MTTF in **hours** for an ``n_gpus`` job: 1/(N * r_f)."""
    if n_gpus <= 0:
        raise ValueError("n_gpus must be positive")
    if failure_rate_per_node_day <= 0:
        return float("inf")
    n_nodes = max(1, math.ceil(n_gpus / GPUS_PER_NODE))
    return (1.0 / (n_nodes * failure_rate_per_node_day)) * (DAY / HOUR)


def mttf_projection_curve(
    sizes: Sequence[int],
    failure_rate_per_node_day: float,
) -> Dict[int, float]:
    """MTTF-hours for each GPU count — the dashed theory line of Fig. 7."""
    return {
        int(size): project_mttf(int(size), failure_rate_per_node_day)
        for size in sizes
    }
