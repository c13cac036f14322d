"""Blocking vs asynchronous checkpointing and the optimal interval.

Fig. 10 "assum[es] checkpoint writes are non-blocking", in which case
smaller intervals are strictly better and the only limit is what storage
absorbs.  With *blocking* writes of ``w`` seconds every ``dt`` of
progress, there is a classic trade-off:

    ETTR_blocking(dt) ~ [1 - N r_f (u0 + dt/2)] * dt / (dt + w)

— the failure term wants dt small, the write-stall term wants dt large.
The maximizer generalizes Young/Daly's sqrt(2 w MTTF) (recovered exactly
as overheads vanish; asserted in tests).
"""

import enum
import math
from dataclasses import replace

from repro.core.ettr import ETTRParameters, expected_ettr_simple


class CheckpointMode(enum.Enum):
    BLOCKING = "blocking"
    ASYNC = "async"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def blocking_overhead_fraction(checkpoint_interval: float, write_time: float) -> float:
    """Fraction of scheduled time spent stalled in checkpoint writes."""
    if checkpoint_interval <= 0:
        raise ValueError("checkpoint_interval must be positive")
    if write_time < 0:
        raise ValueError("write_time must be non-negative")
    return write_time / (checkpoint_interval + write_time)


def ettr_with_checkpoint_writes(
    params: ETTRParameters,
    write_time: float,
    mode: CheckpointMode = CheckpointMode.BLOCKING,
) -> float:
    """E[ETTR] including the cost of the checkpoint writes themselves.

    ASYNC mode matches Eq. 2 (writes hidden behind training); BLOCKING
    mode additionally discounts by the write-stall fraction.  Clamped to
    [0, 1] outside the failure model's validity region.
    """
    base = expected_ettr_simple(params)
    if mode is CheckpointMode.ASYNC:
        return base
    stall = blocking_overhead_fraction(params.checkpoint_interval, write_time)
    return max(0.0, base * (1.0 - stall))


def optimal_blocking_interval(
    params: ETTRParameters,
    write_time: float,
    lo: float = 1.0,
    hi: float = 30 * 24 * 3600.0,
) -> float:
    """Interval maximizing blocking-mode E[ETTR] (golden-section search).

    The objective is unimodal in dt: the product of a decreasing affine
    failure term and an increasing write-efficiency term.
    """
    if write_time <= 0:
        raise ValueError(
            "write_time must be positive; with free writes checkpoint "
            "as often as possible"
        )

    def objective(dt: float) -> float:
        return ettr_with_checkpoint_writes(
            replace(params, checkpoint_interval=dt),
            write_time,
            CheckpointMode.BLOCKING,
        )

    invphi = (math.sqrt(5) - 1) / 2
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(math.exp(c)), objective(math.exp(d))
    for _ in range(200):
        if b - a < 1e-6:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(math.exp(d))
    return math.exp((a + b) / 2)
