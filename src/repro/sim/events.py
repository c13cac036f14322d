"""Structured event records emitted during a campaign.

The engine itself schedules opaque callbacks; subsystems that want a durable
record of *what happened* (health checks firing, jobs changing state, links
flapping) append :class:`EventRecord` entries to an :class:`EventLog`.  The
analysis layer consumes these logs rather than live objects, mirroring how
the paper's analysis consumes Slurm and health-check logs rather than the
cluster itself.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One timestamped fact about the simulated cluster.

    Attributes:
        time: Simulation time in seconds.
        kind: Namespaced event kind, e.g. ``"health.check_failed"`` or
            ``"sched.job_state"``.
        subject: Primary entity the event concerns (node id, job id, ...).
        data: Free-form payload; values must be JSON-serializable.
    """

    time: float
    kind: str
    subject: str
    data: Dict[str, Any] = field(default_factory=dict)


class EventLog:
    """An append-only, time-ordered-by-construction list of events."""

    def __init__(self) -> None:
        self._records: List[EventRecord] = []
        #: Optional observer invoked with every record as it lands (the
        #: live tap's feed — see :mod:`repro.live.tap`).  One attribute
        #: check per append when unset; the listener must not mutate the
        #: log.
        self.listener: Optional[Callable[[EventRecord], None]] = None

    def append(self, record: EventRecord) -> None:
        self._records.append(record)
        if self.listener is not None:
            self.listener(record)

    def emit(self, time: float, kind: str, subject: str, **data: Any) -> EventRecord:
        """Create, append, and return an :class:`EventRecord`."""
        record = EventRecord(time=time, kind=kind, subject=subject, data=data)
        self._records.append(record)
        if self.listener is not None:
            self.listener(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> EventRecord:
        return self._records[index]

    def kinds(self) -> Dict[str, int]:
        """Return a histogram of event kinds."""
        counts: Dict[str, int] = {}
        for rec in self._records:
            counts[rec.kind] = counts.get(rec.kind, 0) + 1
        return counts
