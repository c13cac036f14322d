"""The campaign trace: the repo's equivalent of 11 months of cluster logs.

A :class:`Trace` bundles everything the paper's analyses read:

* per-attempt job records (the Slurm accounting log),
* per-node end-of-campaign records (counters, swaps, lemon ground truth),
* the health/cluster event stream (check firings, incidents, tickets).

Traces serialize to JSONL so campaigns can be generated once and analyzed
many times.  For analysis hot paths, :attr:`Trace.columns` exposes the
same content as typed NumPy column blocks (built lazily, cached) — see
:mod:`repro.core.columns`.
"""

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.jobtypes import JobAttemptRecord, JobState
from repro.sim.events import EventLog, EventRecord
from repro.jobtypes import QosTier

#: Bump whenever the serialized shape of a trace changes.  The runtime
#: trace cache stores this stamp and treats any mismatch as a miss, so a
#: schema change can never resurface stale campaign results.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class NodeTraceRecord:
    """End-of-campaign snapshot of one node's reliability counters."""

    node_id: int
    rack_id: int
    pod_id: int
    gpu_swaps: int
    is_lemon_truth: bool
    lemon_component: Optional[str]
    excl_jobid_count: int
    xid_cnt: int
    tickets: int
    out_count: int
    multi_node_node_fails: int
    single_node_node_fails: int
    single_node_jobs_seen: int

    @property
    def single_node_node_failure_rate(self) -> float:
        if self.single_node_jobs_seen == 0:
            return 0.0
        return self.single_node_node_fails / self.single_node_jobs_seen

    def signal(self, name: str) -> float:
        """Fetch a lemon-detection signal by its paper name."""
        if name == "single_node_node_failure_rate":
            return self.single_node_node_failure_rate
        if not hasattr(self, name):
            raise KeyError(f"unknown lemon signal {name!r}")
        return float(getattr(self, name))


@dataclass
class Trace:
    """One campaign's complete observable record."""

    cluster_name: str
    n_nodes: int
    n_gpus: int
    start: float
    end: float
    job_records: List[JobAttemptRecord] = field(default_factory=list)
    node_records: List[NodeTraceRecord] = field(default_factory=list)
    events: List[EventRecord] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("trace end must exceed start")
        if self.n_nodes <= 0 or self.n_gpus <= 0:
            raise ValueError("trace must describe a non-empty cluster")

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def span_seconds(self) -> float:
        return self.end - self.start

    @property
    def columns(self):
        """Lazily-built :class:`~repro.core.columns.ColumnarTrace` view.

        Built once from the row records on first access and cached; traces
        that were materialized *from* columnar form (npz cache hits) carry
        their blocks along and never rebuild.  The columns are a read-only
        view: mutating ``job_records``/``events`` after the first access
        leaves the cached blocks stale (campaign traces are append-once,
        so this never happens on the production path).
        """
        cached = getattr(self, "_columns", None)
        if cached is None:
            from repro.core.columns import ColumnarTrace

            cached = ColumnarTrace.from_trace(self)
            self._columns = cached
        return cached

    def records_by_state(self, state: JobState) -> List[JobAttemptRecord]:
        return [r for r in self.job_records if r.state is state]

    def hw_failure_records(self) -> List[JobAttemptRecord]:
        """Attempts terminated by infrastructure (the (HW) rows of Fig. 3)."""
        return [r for r in self.job_records if r.is_hw_interruption]

    def health_events(self, kind: str = "health.") -> List[EventRecord]:
        return [e for e in self.events if e.kind.startswith(kind)]

    def events_log(self) -> EventLog:
        log = EventLog()
        for event in self.events:
            log.append(event)
        return log

    def total_gpu_seconds(self) -> float:
        """Scheduled GPU-seconds, summed sequentially in record order."""
        from repro.core.columns import sequential_sum

        return sequential_sum(self.columns.jobs.gpu_seconds)

    def node_record(self, node_id: int) -> NodeTraceRecord:
        for record in self.node_records:
            if record.node_id == node_id:
                return record
        raise KeyError(f"node {node_id} not in trace")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def _header_row(self) -> Dict[str, Any]:
        return {
            "cluster_name": self.cluster_name,
            "n_nodes": self.n_nodes,
            "n_gpus": self.n_gpus,
            "start": self.start,
            "end": self.end,
            "metadata": self.metadata,
        }

    @staticmethod
    def _job_row(rec: JobAttemptRecord) -> Dict[str, Any]:
        row = asdict(rec)
        row["state"] = rec.state.value
        row["qos"] = int(rec.qos)
        row["node_ids"] = list(rec.node_ids)
        return row

    @staticmethod
    def _job_from_row(row: Dict[str, Any]) -> JobAttemptRecord:
        row = dict(row)
        row["state"] = JobState(row["state"])
        row["qos"] = QosTier(row["qos"])
        row["node_ids"] = tuple(row["node_ids"])
        return JobAttemptRecord(**row)

    @staticmethod
    def _event_row(event: EventRecord) -> Dict[str, Any]:
        return {
            "time": event.time,
            "kind": event.kind,
            "subject": event.subject,
            "data": event.data,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Exact, JSON-compatible representation (see ``from_dict``).

        The round trip ``Trace.from_dict(trace.to_dict())`` reproduces the
        trace bit-for-bit — the runtime trace cache and the determinism
        tests rely on this being lossless.
        """
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "header": self._header_row(),
            "jobs": [self._job_row(rec) for rec in self.job_records],
            "nodes": [asdict(node) for node in self.node_records],
            "events": [self._event_row(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Trace":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions."""
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema {schema!r} does not match "
                f"TRACE_SCHEMA_VERSION={TRACE_SCHEMA_VERSION}"
            )
        header = payload["header"]
        return cls(
            cluster_name=header["cluster_name"],
            n_nodes=header["n_nodes"],
            n_gpus=header["n_gpus"],
            start=header["start"],
            end=header["end"],
            job_records=[cls._job_from_row(row) for row in payload["jobs"]],
            node_records=[NodeTraceRecord(**row) for row in payload["nodes"]],
            events=[EventRecord(**row) for row in payload["events"]],
            metadata=header.get("metadata", {}),
        )

    def save(self, path) -> None:
        """Write the trace as JSONL: header, jobs, nodes, events."""
        path = Path(path)

        def line(kind: str, row: Dict[str, Any]) -> str:
            return json.dumps({"type": kind, **row}) + "\n"

        with path.open("w") as fh:
            fh.write(line("header", self._header_row()))
            for rec in self.job_records:
                fh.write(line("job", self._job_row(rec)))
            for node in self.node_records:
                fh.write(line("node", asdict(node)))
            for event in self.events:
                fh.write(line("event", self._event_row(event)))

    @classmethod
    def load(cls, path) -> "Trace":
        path = Path(path)
        header = None
        jobs: List[JobAttemptRecord] = []
        nodes: List[NodeTraceRecord] = []
        events: List[EventRecord] = []
        with path.open() as fh:
            for line in fh:
                row = json.loads(line)
                kind = row.pop("type")
                if kind == "header":
                    header = row
                elif kind == "job":
                    jobs.append(cls._job_from_row(row))
                elif kind == "node":
                    nodes.append(NodeTraceRecord(**row))
                elif kind == "event":
                    events.append(EventRecord(**row))
                else:
                    raise ValueError(f"unknown trace row type {kind!r}")
        if header is None:
            raise ValueError(f"{path} has no header row")
        return cls(
            cluster_name=header["cluster_name"],
            n_nodes=header["n_nodes"],
            n_gpus=header["n_gpus"],
            start=header["start"],
            end=header["end"],
            job_records=jobs,
            node_records=nodes,
            events=events,
            metadata=header.get("metadata", {}),
        )
