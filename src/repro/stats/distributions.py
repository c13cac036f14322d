"""Sampling helpers for the synthetic workload.

The trace generator draws job sizes from a validated, frozen
:class:`MixtureSpec` and durations from :func:`truncated_lognormal`.

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


def truncated_lognormal(
    rng: np.random.Generator,
    mu: float,
    sigma: float,
    minimum: float,
    maximum: float,
) -> float:
    """One log-normal draw truncated to ``[minimum, maximum]``.

    Each round draws 8 values and keeps the first inside the range;
    after 100 empty rounds one more draw is clipped into range, so
    pathological bounds cannot hang.  It returns the value, and consumes
    the stream, of the rejection sampler the workload profiles were
    calibrated with (``tests/property/test_sampler_properties.py`` keeps
    that sampler as the reference).
    """
    for _round in range(100):
        for value in rng.lognormal(mu, sigma, size=8).tolist():
            if minimum <= value <= maximum:
                return value
    return float(np.clip(rng.lognormal(mu, sigma, size=1), minimum, maximum)[0])
