import numpy as np
import pytest

from repro.sim.engine import Engine
from repro.sim.processes import PeriodicProcess, PoissonProcess


def test_periodic_tick_count():
    engine = Engine()
    ticks = []
    PeriodicProcess(engine, 10.0, lambda: ticks.append(engine.now))
    engine.run_until(100.0)
    assert ticks == [10.0 * i for i in range(1, 11)]


def test_periodic_stop_cancels_future_ticks():
    engine = Engine()
    ticks = []
    proc = PeriodicProcess(engine, 10.0, lambda: ticks.append(engine.now))
    engine.schedule_at(35.0, proc.stop)
    engine.run_until(100.0)
    assert ticks == [10.0, 20.0, 30.0]


def test_periodic_requires_positive_period():
    with pytest.raises(ValueError):
        PeriodicProcess(Engine(), 0.0, lambda: None)


def test_poisson_rate_is_approximately_honoured():
    engine = Engine()
    rng = np.random.default_rng(0)
    arrivals = []
    PoissonProcess(engine, 0.1, lambda: arrivals.append(engine.now), rng)
    engine.run_until(10_000.0)
    # ~1000 expected; allow 4 sigma (~126).
    assert 850 <= len(arrivals) <= 1150


def test_poisson_zero_rate_suspends():
    engine = Engine()
    rng = np.random.default_rng(0)
    arrivals = []
    PoissonProcess(engine, 0.0, lambda: arrivals.append(1), rng)
    engine.run_until(1000.0)
    assert arrivals == []
    assert engine.pending_events == 0


def test_poisson_stop():
    engine = Engine()
    rng = np.random.default_rng(0)
    arrivals = []
    proc = PoissonProcess(engine, 1.0, lambda: arrivals.append(1), rng)
    engine.schedule_at(5.0, proc.stop)
    engine.run_until(1000.0)
    assert len(arrivals) <= 20


def test_poisson_negative_rate_rejected():
    with pytest.raises(ValueError):
        PoissonProcess(Engine(), -0.5, lambda: None, np.random.default_rng(0))
