"""Parametric sampling specs for the synthetic workload.

The trace generator composes these small, validated specs: log-normal
durations, discrete size mixtures, and Zipf-like tails.  Keeping them as
frozen dataclasses makes workload profiles declarative and serializable.

Weighted draws go through :func:`choice_cdf` and :func:`weighted_index`,
which reproduce ``Generator.choice(n, p=p)`` draw for draw without
re-validating ``p`` on every call (``docs/PERFORMANCE.md``, "Workload
sampling").
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class LogNormalSpec:
    """A log-normal in natural-log parameterization with optional truncation."""

    mu: float
    sigma: float
    minimum: float = 0.0
    maximum: float = float("inf")

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.minimum < 0:
            raise ValueError("minimum must be non-negative")
        if self.maximum <= self.minimum:
            raise ValueError("maximum must exceed minimum")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw truncated samples (resampling the out-of-range tail)."""
        return truncated_sample(
            lambda n: rng.lognormal(self.mu, self.sigma, size=n),
            self.minimum,
            self.maximum,
            size,
        )

    @property
    def median(self) -> float:
        return float(np.exp(self.mu))


@dataclass(frozen=True)
class ZipfSizeSpec:
    """A Zipf-weighted distribution over an explicit support of sizes."""

    support: Tuple[int, ...]
    exponent: float = 1.5

    def __post_init__(self):
        if len(self.support) == 0:
            raise ValueError("support must be non-empty")
        if any(s <= 0 for s in self.support):
            raise ValueError("support values must be positive")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")

    def probabilities(self) -> np.ndarray:
        ranks = np.arange(1, len(self.support) + 1, dtype=float)
        weights = ranks ** (-self.exponent)
        return weights / weights.sum()

    @cached_property
    def cdf(self) -> Tuple[float, ...]:
        """:func:`choice_cdf` of :meth:`probabilities`, aligned with ``support``."""
        return choice_cdf(self.probabilities())

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return np.asarray(self.support, dtype=int)[_indices(self.cdf, rng, size)]


@dataclass(frozen=True)
class MixtureSpec:
    """A discrete mixture: value -> probability weight (normalized lazily)."""

    weights: Tuple[Tuple[int, float], ...]

    @classmethod
    def from_dict(cls, weights: Dict[int, float]) -> "MixtureSpec":
        return cls(tuple(sorted(weights.items())))

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ValueError("mixture must have at least one component")
        if not all(0 <= w < float("inf") for _v, w in self.weights):
            raise ValueError("mixture weights must be finite and non-negative")
        if sum(w for _v, w in self.weights) <= 0:
            raise ValueError("mixture weights must sum to a positive value")

    def values(self) -> np.ndarray:
        return np.asarray([v for v, _w in self.weights], dtype=int)

    def probabilities(self) -> np.ndarray:
        w = np.asarray([w for _v, w in self.weights], dtype=float)
        return w / w.sum()

    @cached_property
    def cdf(self) -> Tuple[float, ...]:
        """:func:`choice_cdf` of :meth:`probabilities`, aligned with :meth:`values`."""
        return choice_cdf(self.probabilities())

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return self.values()[_indices(self.cdf, rng, size)]

    def probability_of(self, value: int) -> float:
        for (v, _w), p in zip(self.weights, self.probabilities()):
            if v == value:
                return float(p)
        return 0.0


def choice_cdf(p) -> Tuple[float, ...]:
    """The table ``Generator.choice(a, p=p)`` searches, built once.

    NumPy's choice computes ``cdf = p.cumsum(); cdf /= cdf[-1]`` and then
    ``cdf.searchsorted(rng.random(), side="right")``.  Building the same
    array here, with the same NumPy operations, makes
    :func:`weighted_index` over it return the same index from the same
    uniform.  ``p`` is not validated: callers check it when their spec is
    constructed.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def weighted_index(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """One draw of ``int(rng.choice(len(cdf), p=p))`` for ``cdf = choice_cdf(p)``.

    Consumes exactly one ``rng.random()``, as choice does.
    """
    return bisect_right(cdf, rng.random())


def _indices(cdf: Sequence[float], rng: np.random.Generator, size: int) -> list:
    """``size`` successive :func:`weighted_index` draws."""
    if size < 0:
        raise ValueError("size must be non-negative")
    return [weighted_index(cdf, rng) for _ in range(size)]


def truncated_lognormal(
    rng: np.random.Generator,
    mu: float,
    sigma: float,
    minimum: float,
    maximum: float,
) -> float:
    """One draw of ``LogNormalSpec(mu, sigma, minimum, maximum).sample(rng)[0]``.

    The same value and the same stream use as :func:`truncated_sample`
    with ``size=1``: each round draws ``max(2 * 1, 8) = 8`` values and
    keeps the first inside ``[minimum, maximum]``; after 100 empty rounds
    one more draw is clipped into range.
    """
    for _round in range(100):
        for value in rng.lognormal(mu, sigma, size=8).tolist():
            if minimum <= value <= maximum:
                return value
    return float(np.clip(rng.lognormal(mu, sigma, size=1), minimum, maximum)[0])


def truncated_sample(draw, minimum: float, maximum: float, size: int) -> np.ndarray:
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
