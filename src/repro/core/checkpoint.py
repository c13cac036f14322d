"""Checkpoint-cadence design space (Fig. 10) and optimal-interval helpers.

Fig. 10 asks: at 100k-GPU scale, what (failure rate, checkpoint interval)
pairs achieve a given expected ETTR?  Using Eq. 2 —
``E[ETTR] = 1 - N r_f (u0 + dt/2)`` — the required interval solves in
closed form.  The paper assumes non-blocking checkpoint
writes, in which case smaller dt is strictly better down to the write
cadence the storage can absorb; :mod:`repro.storage.checkpointing` prices
blocking writes.
"""

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cluster.components import GPUS_PER_NODE
from repro.sim.timeunits import DAY, MINUTE


def required_checkpoint_interval(
    target_ettr: float,
    n_nodes: int,
    failure_rate_per_node_day: float,
    restart_overhead: float = 5 * MINUTE,
) -> float:
    """Checkpoint interval (seconds) achieving ``target_ettr`` under Eq. 2.

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
    # Eq. 2 inverted: dt = 2 ((1 - ettr)/(N r) - u0).
    dt = 2 * ((1 - target_ettr) / lam - restart_overhead)
    if dt <= 0:
        raise ValueError(
            f"target ETTR {target_ettr} unreachable: restart overhead "
            f"({restart_overhead:.0f}s) alone exceeds the failure budget "
            f"at MTTF {1 / lam:.0f}s"
        )
    return dt


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
