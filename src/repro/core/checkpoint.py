"""Checkpoint-cadence design space (Fig. 10) and optimal-interval helpers.

Fig. 10 asks: at 100k-GPU scale, what (failure rate, checkpoint interval)
pairs achieve a given expected ETTR?  Using Eq. 2 —
``E[ETTR] = 1 - N r_f (u0 + dt/2)`` — the required interval solves in
closed form; the full Eq. 1 version is inverted numerically for scenarios
where queueing matters.  The paper assumes non-blocking checkpoint
writes, in which case smaller dt is strictly better down to the write
cadence the storage can absorb; :mod:`repro.storage.checkpointing` prices
blocking writes.
"""

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cluster.components import GPUS_PER_NODE
from repro.core.ettr import ETTRParameters, expected_ettr
from repro.sim.timeunits import DAY, MINUTE


def required_checkpoint_interval(
    target_ettr: float,
    n_nodes: int,
    failure_rate_per_node_day: float,
    restart_overhead: float = 5 * MINUTE,
    queue_time: float = 0.0,
    use_full_model: bool = False,
) -> float:
    """Checkpoint interval (seconds) achieving ``target_ettr``.

    Returns ``inf`` when any interval works (failure-free limit) and raises
    when no positive interval can reach the target (restart overhead alone
    already exceeds the budget) — the regime where the paper says hourly
    checkpointing "is untenable".
    """
    if not 0 < target_ettr < 1:
        raise ValueError("target_ettr must be in (0, 1)")
    lam = n_nodes * failure_rate_per_node_day / DAY  # failures per second
    if lam == 0:
        return float("inf")
    if not use_full_model:
        # Eq. 2 inverted: dt = 2 ((1 - ettr)/(N r) - u0).
        dt = 2 * ((1 - target_ettr) / lam - restart_overhead)
        if dt <= 0:
            raise ValueError(
                f"target ETTR {target_ettr} unreachable: restart overhead "
                f"({restart_overhead:.0f}s) alone exceeds the failure budget "
                f"at MTTF {1 / lam:.0f}s"
            )
        return dt

    # Full model: E[ETTR](dt) is monotone decreasing in dt; bisect.
    def ettr_at(dt: float) -> float:
        params = ETTRParameters(
            n_nodes=n_nodes,
            failure_rate_per_node_day=failure_rate_per_node_day,
            checkpoint_interval=dt,
            restart_overhead=restart_overhead,
            queue_time=queue_time,
        )
        try:
            return expected_ettr(params)
        except ValueError:
            return 0.0  # outside validity region -> no progress

    lo, hi = 1.0, 30 * DAY
    if ettr_at(lo) < target_ettr:
        raise ValueError(
            f"target ETTR {target_ettr} unreachable even at 1-second "
            "checkpointing; reduce restart overhead or failure rate"
        )
    if ettr_at(hi) >= target_ettr:
        return float("inf")
    for _ in range(200):
        mid = math.sqrt(lo * hi)  # log-space bisection
        if ettr_at(mid) >= target_ettr:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0001:
            break
    return lo


def ettr_checkpoint_grid(
    failure_rates_per_node_day: Sequence[float],
    checkpoint_intervals: Sequence[float],
    n_gpus: int = 100_000,
    restart_overhead: float = 5 * MINUTE,
) -> Dict[Tuple[float, float], float]:
    """Fig. 10's surface: E[ETTR] over (r_f, dt) at 100k-GPU scale.

    Keys are ``(failure_rate, checkpoint_interval)``; values use Eq. 2
    (clamped at 0 where the job cannot progress).
    """
    if n_gpus <= 0:
        raise ValueError("n_gpus must be positive")
    n_nodes = max(1, n_gpus // GPUS_PER_NODE)
    rates = np.asarray(failure_rates_per_node_day, dtype=float)
    intervals = np.asarray(checkpoint_intervals, dtype=float)
    # Same validation ETTRParameters would apply per cell.
    if np.any(rates < 0):
        raise ValueError("failure rate must be non-negative")
    if np.any(intervals <= 0):
        raise ValueError("checkpoint_interval must be positive")
    if restart_overhead < 0:
        raise ValueError("overheads must be non-negative")
    # Eq. 2 broadcast over the whole (r_f, dt) surface at once; each cell
    # is the same float arithmetic expected_ettr_simple performs.
    lam = n_nodes * rates / DAY  # failures per second, shape (R,)
    overhead = restart_overhead + intervals / 2  # shape (D,)
    surface = np.maximum(0.0, 1.0 - lam[:, None] * overhead[None, :])
    grid: Dict[Tuple[float, float], float] = {}
    for i, rf in enumerate(rates):
        for j, dt in enumerate(intervals):
            grid[(float(rf), float(dt))] = float(surface[i, j])
    return grid
