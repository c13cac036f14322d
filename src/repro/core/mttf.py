"""MTTF analysis: empirical per-size MTTF, Gamma CIs, 1/N projection (Fig. 7).

Three pieces, matching the paper's Section III:

1. **Empirical MTTF by job size** — jobs are bucketed by GPU count rounded
   up to the next multiple of 8 and then to powers of two; the bucket MTTF
   is total scheduled runtime over hardware-failure count, with a 90%
   Gamma confidence interval.
2. **Cluster failure rate r_f** — failures per node-day over jobs larger
   than a GPU floor (the paper uses >128 GPUs so small-job noise doesn't
   contaminate the estimate).
3. **Projection** — MTTF(N) = 1 / (N_nodes * r_f), the curve the paper
   validates against buckets from 32 to 4096 GPUs and then extrapolates to
   16k (1.8 h) and 131k (0.23 h) GPUs.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.cluster.components import GPUS_PER_NODE
from repro.core.columns import JobColumns, sequential_sum
from repro.sim.timeunits import DAY, HOUR
from repro.stats.fitting import RateEstimate, estimate_rate
from repro.stats.quantiles import power_of_two_bucket


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


def empirical_mttf_by_size(
    columns: JobColumns,
    confidence: float = 0.90,
    use_ground_truth: bool = True,
    min_records: int = 1,
) -> List[MTTFBucket]:
    """Per-size-bucket MTTF with Gamma confidence intervals.

    Exposure is the total scheduled runtime (hours) of all attempts in the
    bucket — completed attempts are right-censored observations of the
    failure process, exactly as in the paper's jobs-of-that-size pooling.
    ``np.bincount`` accumulates the per-bucket runtime sequentially in
    record order.
    """
    if len(columns) == 0:
        return []
    buckets = columns.size_bucket()
    hw = columns.hw_failure_mask(use_ground_truth=use_ground_truth)
    uniq, inverse = np.unique(buckets, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(uniq))
    runtime_hours = np.bincount(
        inverse, weights=columns.runtime / HOUR, minlength=len(uniq)
    )
    failures = np.bincount(
        inverse, weights=hw.astype(np.float64), minlength=len(uniq)
    )
    out = []
    for i, bucket in enumerate(uniq):  # np.unique is sorted ascending
        n = int(counts[i])
        hours = float(runtime_hours[i])
        if n < min_records or hours <= 0:
            continue
        fails = int(round(failures[i]))
        out.append(
            MTTFBucket(
                gpus=int(bucket),
                n_records=n,
                failures=fails,
                runtime_hours=hours,
                estimate=estimate_rate(fails, hours, confidence=confidence),
            )
        )
    return out


def node_failure_rate(
    columns: JobColumns,
    min_gpus: int = 128,
    use_ground_truth: bool = True,
    confidence: float = 0.90,
) -> RateEstimate:
    """Cluster failure rate r_f in failures per *node-day* of job runtime.

    Counts hardware failures among attempts with more than ``min_gpus``
    GPUs and divides by their node-days (runtime x allocated nodes) —
    Section III's recipe for the r_f that feeds both the Fig. 7 projection
    and E[ETTR].  The node-day exposure accumulates sequentially in record
    order (``np.cumsum``), the same single accumulator the streaming
    estimator in :mod:`repro.live` keeps.
    """
    mask = columns.n_gpus > min_gpus
    node_days = sequential_sum(
        columns.runtime[mask] / DAY * columns.n_nodes[mask].astype(np.float64)
    )
    failures = int(
        np.count_nonzero(
            columns.hw_failure_mask(use_ground_truth=use_ground_truth) & mask
        )
    )
    if node_days <= 0:
        raise ValueError(
            f"no runtime from jobs larger than {min_gpus} GPUs; "
            "lower min_gpus or use a longer trace"
        )
    return estimate_rate(failures, node_days, confidence=confidence)


def project_mttf(
    n_gpus: int,
    failure_rate_per_node_day: float,
    gpus_per_node: int = GPUS_PER_NODE,
) -> float:
    """Theoretical MTTF in **hours** for an ``n_gpus`` job: 1/(N * r_f)."""
    if n_gpus <= 0:
        raise ValueError("n_gpus must be positive")
    if failure_rate_per_node_day <= 0:
        return float("inf")
    n_nodes = max(1, math.ceil(n_gpus / gpus_per_node))
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
