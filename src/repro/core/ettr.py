"""The analytical E[ETTR] model (Eq. 1-2) and its Monte Carlo validator.

Appendix A derives, for a job on N nodes with per-node failure rate r_f,
checkpoint interval dt, restart overhead u0, mean queue wait q, and
productive runtime R:

    E[N_f] ~ N r_f (R + u0) / (1 - N r_f (u0 + dt/2))          (Eq. 4)
    E[S]   ~ ((E[N_f]+1)(q + u0) + E[N_f] dt/2) / R            (Eq. 5)
    E[ETTR] >~ 1 / (1 + E[S])                                   (Eq. 6)

which expands to Eq. 1 and, for long high-priority jobs with negligible
queueing, collapses to Eq. 2: ``1 - N r_f (u0 + dt/2)``.

All rates here are *per node-day*; times are seconds (converted
internally).  The Monte Carlo simulator draws failure times, checkpoint
positions, and queue waits explicitly, and the paper's claim — the closed
form is within ~5% even for large jobs — is asserted in the test suite.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.components import GPUS_PER_NODE
from repro.sim.timeunits import DAY, HOUR, MINUTE


@dataclass(frozen=True)
class ETTRParameters:
    """Inputs to the expected-ETTR model.

    Attributes:
        n_nodes: Nodes in the gang (N_nodes).
        failure_rate_per_node_day: r_f, failures per node-day of runtime.
        checkpoint_interval: dt_cp, seconds between checkpoints.
        restart_overhead: u0, seconds of initialization per (re)start.
        queue_time: q, expected wait before the first start and after every
            interruption, seconds.
        productive_runtime: R, seconds of productive compute required.
    """

    n_nodes: int
    failure_rate_per_node_day: float
    checkpoint_interval: float = 1 * HOUR
    restart_overhead: float = 5 * MINUTE
    queue_time: float = 1 * MINUTE
    productive_runtime: float = 7 * DAY

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if self.failure_rate_per_node_day < 0:
            raise ValueError("failure rate must be non-negative")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.restart_overhead < 0 or self.queue_time < 0:
            raise ValueError("overheads must be non-negative")
        if self.productive_runtime <= 0:
            raise ValueError("productive_runtime must be positive")

    @property
    def job_failure_rate_per_second(self) -> float:
        """N_nodes * r_f, converted to per-second."""
        return self.n_nodes * self.failure_rate_per_node_day / DAY

    def overhead_per_failure(self) -> float:
        """u0 + dt/2 — expected unproductive seconds per interruption."""
        return self.restart_overhead + self.checkpoint_interval / 2


def expected_failures(params: ETTRParameters) -> float:
    """Eq. 4: expected interruptions over the whole run."""
    lam = params.job_failure_rate_per_second
    denom = 1.0 - lam * params.overhead_per_failure()
    if denom <= 0:
        raise ValueError(
            "model invalid: expected overhead per failure exceeds MTTF "
            f"(N*r_f*(u0 + dt/2) = {lam * params.overhead_per_failure():.3f} >= 1); "
            "checkpoint much more often or reduce the failure rate"
        )
    return lam * (params.productive_runtime + params.restart_overhead) / denom


def expected_slowdown(params: ETTRParameters) -> float:
    """Eq. 5: E[S] = E[(U + Q) / R]."""
    n_f = expected_failures(params)
    q = params.queue_time
    u0 = params.restart_overhead
    dt_half = params.checkpoint_interval / 2
    return ((n_f + 1) * (q + u0) + n_f * dt_half) / params.productive_runtime


def expected_ettr(params: ETTRParameters) -> float:
    """Eq. 1 / Eq. 6-7: the full expected-ETTR approximation."""
    return 1.0 / (1.0 + expected_slowdown(params))


def expected_ettr_simple(params: ETTRParameters) -> float:
    """Eq. 2: the long-run, negligible-queue simplification.

    Clamped at 0 — beyond the model's validity region (overheads per
    failure comparable to MTTF) the training run makes no progress.
    """
    lam = params.job_failure_rate_per_second
    return max(0.0, 1.0 - lam * params.overhead_per_failure())


def monte_carlo_ettr_samples(
    params: ETTRParameters,
    n_trials: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Simulate job runs explicitly; one ETTR sample per trial.

    Each trial replays one training run: queue (an exponential wait with
    mean ``queue_time``), initialize (u0), make
    progress with checkpoints every dt of *productive* time, suffer
    Poisson failures at rate N*r_f, lose progress back to the last
    checkpoint, requeue, repeat until R productive seconds accumulate.
    The full sample lets callers look at run-to-run spread (e.g. the
    unlucky tail of an 8k-GPU week), not just the expectation.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    lam = params.job_failure_rate_per_second
    R = params.productive_runtime
    dt = params.checkpoint_interval
    u0 = params.restart_overhead

    # All trials advance in lock-step, one scheduling attempt per round:
    # each round draws one batched queue wait and one batched failure time
    # for every still-running trial, so the Python-loop cost is O(rounds)
    # instead of O(total attempts).  The estimator is unchanged — only the
    # order in which the generator's draws are assigned to trials differs
    # from the historical one-trial-at-a-time loop.
    wallclock = np.zeros(n_trials)
    progress = np.zeros(n_trials)
    active = np.ones(n_trials, dtype=bool)
    while True:
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        if params.queue_time > 0:
            wallclock[act] += rng.exponential(params.queue_time, size=act.size)
        if lam > 0:
            ttf = rng.exponential(1.0 / lam, size=act.size)
        else:
            ttf = np.full(act.size, np.inf)
        needed = u0 + (R - progress[act])
        finished = ttf >= needed
        done_idx = act[finished]
        wallclock[done_idx] += needed[finished]
        progress[done_idx] = R
        active[done_idx] = False
        cont_idx = act[~finished]
        if cont_idx.size:
            ttf_cont = ttf[~finished]
            wallclock[cont_idx] += ttf_cont
            productive = np.maximum(0.0, ttf_cont - u0)
            # Progress snaps back to the last checkpoint boundary;
            # checkpoints are taken every dt of productive time and
            # survive restarts (global checkpoint clock).
            total = progress[cont_idx] + productive
            progress[cont_idx] = np.minimum(np.floor(total / dt) * dt, R)
    return np.where(wallclock > 0, R / wallclock, 1.0)


def monte_carlo_ettr(
    params: ETTRParameters,
    n_trials: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Mean of :func:`monte_carlo_ettr_samples` (the paper's comparison)."""
    return float(monte_carlo_ettr_samples(params, n_trials, rng).mean())


def dedicated_cluster_scenario(
    n_gpus: int,
    failure_rate_per_node_day: float,
    checkpoint_interval: float,
    productive_runtime: float = 7 * DAY,
) -> ETTRParameters:
    """Convenience for the paper's hypotheticals (e.g. all of RSC-1 as one
    16k-GPU job, or the O(1e5)-GPU future runs of Fig. 10), with the
    default restart overhead and queue time."""
    return ETTRParameters(
        n_nodes=max(1, n_gpus // GPUS_PER_NODE),
        failure_rate_per_node_day=failure_rate_per_node_day,
        checkpoint_interval=checkpoint_interval,
        productive_runtime=productive_runtime,
    )
