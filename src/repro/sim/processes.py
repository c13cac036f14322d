"""Reusable process patterns on top of the event engine."""

from typing import Callable, Optional

import numpy as np

from repro.sim.engine import Engine, ScheduledEvent


class PeriodicProcess:
    """Run a callback at a fixed period until stopped.

    Used for coarse periodic activities (e.g. fleet sweeps).  Fine-grained
    periodic activities such as per-node five-minute health checks are *not*
    modelled as literal events — see :mod:`repro.cluster.health` for the
    lazy-detection design — so this class stays cheap to use.
    """

    def __init__(
        self,
        engine: Engine,
        period: float,
        callback: Callable[[], None],
        label: str = "periodic",
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._engine = engine
        self._period = period
        self._callback = callback
        self._label = label
        self._stopped = False
        self._pending: Optional[ScheduledEvent] = engine.schedule_after(
            period, self._tick, label=label
        )

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._pending = self._engine.schedule_after(
                self._period, self._tick, label=self._label
            )

    def stop(self) -> None:
        """Stop the process; any pending tick is cancelled."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None


class PoissonProcess:
    """Schedule a callback at exponentially distributed intervals.

    The rate may be changed on the fly (e.g. the episodic failure regimes of
    Fig. 5); the next arrival is re-drawn from the new rate.  A rate of zero
    suspends the process until the rate becomes positive again.
    """

    def __init__(
        self,
        engine: Engine,
        rate_per_second: float,
        callback: Callable[[], None],
        rng: np.random.Generator,
        label: str = "poisson",
    ):
        if rate_per_second < 0:
            raise ValueError(f"rate must be non-negative, got {rate_per_second}")
        self._engine = engine
        self._rate = rate_per_second
        self._callback = callback
        self._rng = rng
        self._label = label
        self._stopped = False
        self._pending: Optional[ScheduledEvent] = None
        self._arm()

    @property
    def rate(self) -> float:
        return self._rate

    def _arm(self) -> None:
        if self._rate <= 0:
            return
        gap = self._rng.exponential(1.0 / self._rate)
        self._pending = self._engine.schedule_after(gap, self._fire, label=self._label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm()

    def stop(self) -> None:
        """Stop the process; any pending arrival is cancelled."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
