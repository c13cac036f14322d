"""Failure-rate and MTTF estimation.

The paper estimates MTTF per job-size bucket as exposure divided by failure
count and puts 90% confidence intervals on it "generated by fitting a Gamma
distribution" (Fig. 7).  For a Poisson failure process observed for exposure
``T`` with ``k`` events, the posterior/confidence distribution of the rate is
Gamma — equivalently the chi-square interval — which is what we implement
here.  MTTF intervals are the reciprocal rate intervals.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import special
from scipy import stats as sps


@dataclass(frozen=True)
class RateEstimate:
    """A Poisson rate estimate with a confidence interval.

    Attributes:
        events: Number of observed failures.
        exposure: Total observed exposure (e.g. node-days or GPU-hours).
        rate: Point estimate ``events / exposure``.
        lo: Lower bound of the rate confidence interval.
        hi: Upper bound of the rate confidence interval.
        confidence: Two-sided confidence level (e.g. 0.90).
    """

    events: int
    exposure: float
    rate: float
    lo: float
    hi: float
    confidence: float

    @property
    def mttf(self) -> float:
        """Mean time to failure implied by the point rate (inf if no events)."""
        return float("inf") if self.rate == 0 else 1.0 / self.rate

    @property
    def mttf_lo(self) -> float:
        """Lower MTTF bound (from the *upper* rate bound)."""
        return float("inf") if self.hi == 0 else 1.0 / self.hi

    @property
    def mttf_hi(self) -> float:
        """Upper MTTF bound (from the *lower* rate bound)."""
        return float("inf") if self.lo == 0 else 1.0 / self.lo


def rate_confidence_interval(
    events: int, exposure: float, confidence: float = 0.90
) -> Tuple[float, float]:
    """Gamma (chi-square) confidence interval for a Poisson rate.

    Uses the standard exact interval: with ``k`` events in exposure ``T``,
    the lower bound is ``Gamma(k, 1)``'s alpha/2 quantile / T and the upper
    ``Gamma(k+1, 1)``'s 1-alpha/2 quantile / T.  With zero events the lower
    bound is 0.  The quantiles come from ``special.gammaincinv`` directly:
    it is what ``sps.gamma.ppf(q, a=k)`` evaluates for the standard
    Gamma, without the distribution machinery's per-call overhead.
    """
    if events < 0:
        raise ValueError(f"events must be non-negative, got {events}")
    if exposure <= 0:
        raise ValueError(f"exposure must be positive, got {exposure}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    lo = 0.0 if events == 0 else special.gammaincinv(events, alpha / 2) / exposure
    hi = special.gammaincinv(events + 1, 1 - alpha / 2) / exposure
    return float(lo), float(hi)


def estimate_rate(
    events: int, exposure: float, confidence: float = 0.90
) -> RateEstimate:
    """Estimate a Poisson rate with its Gamma confidence interval."""
    lo, hi = rate_confidence_interval(events, exposure, confidence)
    rate = events / exposure
    return RateEstimate(
        events=int(events),
        exposure=float(exposure),
        rate=float(rate),
        lo=lo,
        hi=hi,
        confidence=confidence,
    )


def fit_exponential_mttf(
    times_to_failure: Sequence[float],
    censored_exposures: Optional[Sequence[float]] = None,
    confidence: float = 0.90,
) -> RateEstimate:
    """MLE of an exponential MTTF from (possibly censored) lifetimes.

    ``times_to_failure`` are observed failure intervals; entries of
    ``censored_exposures`` are runtimes that ended without failure (right
    censoring — e.g. jobs that completed).  The exponential MLE is total
    exposure over failure count, and the Gamma interval applies unchanged.
    """
    ttf = np.asarray(list(times_to_failure), dtype=float)
    if np.any(ttf < 0):
        raise ValueError("times to failure must be non-negative")
    exposure = float(ttf.sum())
    if censored_exposures is not None:
        cens = np.asarray(list(censored_exposures), dtype=float)
        if np.any(cens < 0):
            raise ValueError("censored exposures must be non-negative")
        exposure += float(cens.sum())
    events = int(ttf.size)
    if exposure <= 0:
        raise ValueError("total exposure must be positive")
    return estimate_rate(events, exposure, confidence)


def gamma_fit(samples: Sequence[float]) -> Tuple[float, float]:
    """Fit a Gamma distribution to positive samples; returns (shape, scale).

    Used for exploratory modelling of inter-failure times; the MTTF
    intervals themselves use the exact Poisson interval above.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples to fit a Gamma distribution")
    if np.any(arr <= 0):
        raise ValueError("Gamma fit requires strictly positive samples")
    shape, _loc, scale = sps.gamma.fit(arr, floc=0.0)
    return float(shape), float(scale)
