"""Failure-rate and MTTF estimation.

The paper estimates MTTF per job-size bucket as exposure divided by failure
count and puts 90% confidence intervals on it "generated by fitting a Gamma
distribution" (Fig. 7).  For a Poisson failure process observed for exposure
``T`` with ``k`` events, the posterior/confidence distribution of the rate is
Gamma — equivalently the chi-square interval — which is what we implement
here.  MTTF intervals are the reciprocal rate intervals.
"""

from dataclasses import dataclass
from typing import Tuple

from scipy import special


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
    it is what ``scipy.stats.gamma.ppf(q, a=k)`` evaluates for the standard
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
