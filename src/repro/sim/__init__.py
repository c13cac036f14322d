"""Deterministic discrete-event simulation substrate.

The engine is deliberately small: a time-ordered event heap, a monotonic
clock, and named, independently seeded random streams.  Everything else in
the repository (cluster hardware, scheduler, workload) is built as callbacks
scheduled on this engine, which keeps campaign runs reproducible from a
single root seed.
"""

from repro.sim.engine import Engine, ScheduledEvent
from repro.sim.events import EventRecord, EventLog
from repro.sim.rng import RngStreams
from repro.sim.timeunits import (
    SECOND,
    MINUTE,
    HOUR,
    DAY,
    WEEK,
    days,
    hours,
)

__all__ = [
    "Engine",
    "ScheduledEvent",
    "EventRecord",
    "EventLog",
    "RngStreams",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "days",
    "hours",
]
