"""Reliability metrics: ETTR (Section II-D).

ETTR — Effective Training Time Ratio — is productive runtime over available
wallclock time for a *job run* (a chain of scheduler jobs of one logical
training task).  Productive runtime excludes (1) re-training from the last
checkpoint after an interruption and (2) restart initialization overhead.
Neither is directly observable at scale, so — exactly like the paper — they
are free parameters supplied as :class:`ETTRAssumptions`.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.timeunits import HOUR, MINUTE


@dataclass(frozen=True)
class ETTRAssumptions:
    """The paper's free parameters for unproductive time.

    Defaults are the values Fig. 9 uses: 60-minute checkpoint interval and
    a 5-minute restart overhead, with every attempt treated as interrupted
    by an infra failure (making measured ETTR an underestimate).
    """

    checkpoint_interval: float = 1 * HOUR
    restart_overhead: float = 5 * MINUTE
    treat_all_attempts_as_interrupted: bool = True

    def __post_init__(self):
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.restart_overhead < 0:
            raise ValueError("restart_overhead must be non-negative")

    @property
    def expected_checkpoint_loss(self) -> float:
        """E[recompute] when interruptions are uniform over the interval."""
        return self.checkpoint_interval / 2


def run_ettr(
    runtimes: Sequence[float],
    queue_waits: Sequence[float],
    assumptions: Optional[ETTRAssumptions] = None,
) -> float:
    """Measured ETTR of one job run, W = R + U + Q, as R / W.

    ``runtimes`` and ``queue_waits`` are the run's attempts in start
    order.  Follows Appendix A's accounting: the first attempt pays the
    restart overhead u0; every subsequent attempt pays u0 plus the
    expected checkpoint recompute dt/2 (each term capped at the attempt's
    actual runtime — a 2-minute attempt cannot waste 35 minutes).
    """
    if assumptions is None:
        assumptions = ETTRAssumptions()
    u0 = assumptions.restart_overhead
    cp_loss = assumptions.expected_checkpoint_loss
    unproductive = 0.0
    for i, runtime in enumerate(runtimes):
        loss = u0 if i == 0 else u0 + cp_loss
        unproductive += min(loss, runtime)
    productive = max(0.0, sum(runtimes) - unproductive)
    wallclock = productive + unproductive + sum(queue_waits)
    if wallclock <= 0:
        return 0.0
    return productive / wallclock
