"""Statistics utilities shared across the reliability analyses.

These are the numeric building blocks behind the paper's figures: rate
estimation with Gamma confidence intervals (Fig. 7's MTTF error bars),
weighted distribution summaries (Fig. 6), empirical CDFs (Fig. 11), and bootstrap confidence intervals
(Fig. 9).
"""

from repro.stats.fitting import (
    RateEstimate,
    estimate_rate,
    rate_confidence_interval,
    fit_exponential_mttf,
    gamma_fit,
)
from repro.stats.bootstrap import bootstrap_ci, bootstrap_mean_ci
from repro.stats.quantiles import ecdf, weighted_fractions, histogram_by_bucket
from repro.stats.survival import SurvivalCurve, exponential_survival, kaplan_meier
from repro.stats.distributions import (
    LogNormalSpec,
    ZipfSizeSpec,
    MixtureSpec,
    truncated_sample,
)

__all__ = [
    "RateEstimate",
    "estimate_rate",
    "rate_confidence_interval",
    "fit_exponential_mttf",
    "gamma_fit",
    "bootstrap_ci",
    "bootstrap_mean_ci",
    "ecdf",
    "weighted_fractions",
    "histogram_by_bucket",
    "SurvivalCurve",
    "exponential_survival",
    "kaplan_meier",
    "LogNormalSpec",
    "ZipfSizeSpec",
    "MixtureSpec",
    "truncated_sample",
]
