"""Statistics utilities shared across the reliability analyses.

These are the numeric building blocks behind the paper's figures: rate
estimation with Gamma confidence intervals (Fig. 7's MTTF error bars),
empirical CDFs (Fig. 11), bootstrap confidence intervals (Fig. 9) and
the workload's weighted size mixture.
"""

from repro.stats.fitting import (
    RateEstimate,
    estimate_rate,
    rate_confidence_interval,
)
from repro.stats.bootstrap import bootstrap_mean_ci
from repro.stats.quantiles import ecdf
from repro.stats.distributions import MixtureSpec

__all__ = [
    "RateEstimate",
    "estimate_rate",
    "rate_confidence_interval",
    "bootstrap_mean_ci",
    "ecdf",
    "MixtureSpec",
]
