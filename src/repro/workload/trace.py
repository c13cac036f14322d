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
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.jobtypes import JobAttemptRecord, JobState
from repro.sim.events import EventRecord
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


#: The row schema: the keys of the job, node and event tables, in field
#: order.  Every field is a scalar (``node_ids`` is re-listed per row),
#: so rows are built by plain attribute reads instead of ``asdict``'s
#: recursive deep copy.  ``repro.runtime.hashing`` encodes rows from the
#: same schema without building them.
JOB_ROW_FIELDS = tuple(f.name for f in fields(JobAttemptRecord))
NODE_ROW_FIELDS = tuple(f.name for f in fields(NodeTraceRecord))
EVENT_ROW_FIELDS = tuple(f.name for f in fields(EventRecord))

#: Job fields whose row value is not the attribute itself: the state by
#: value, the tier as a plain int, the node ids as a list.
JOB_ROW_CASTS = {"state": attrgetter("value"), "qos": int, "node_ids": list}


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
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError("trace start and end must be finite")
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

    def hw_failure_records(self) -> List[JobAttemptRecord]:
        """Attempts terminated by infrastructure (the (HW) rows of Fig. 3)."""
        return [r for r in self.job_records if r.is_hw_interruption]

    def total_gpu_seconds(self) -> float:
        """Scheduled GPU-seconds, summed sequentially in record order."""
        from repro.core.columns import sequential_sum

        return sequential_sum(self.columns.jobs.gpu_seconds)

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
        row = {name: getattr(rec, name) for name in JOB_ROW_FIELDS}
        for name, cast in JOB_ROW_CASTS.items():
            row[name] = cast(row[name])
        return row

    @staticmethod
    def _node_row(node: NodeTraceRecord) -> Dict[str, Any]:
        return {name: getattr(node, name) for name in NODE_ROW_FIELDS}

    @staticmethod
    def _job_from_row(row: Dict[str, Any]) -> JobAttemptRecord:
        row = dict(row)
        row["state"] = JobState(row["state"])
        row["qos"] = QosTier(row["qos"])
        row["node_ids"] = tuple(row["node_ids"])
        return JobAttemptRecord(**row)

    @staticmethod
    def _event_row(event: EventRecord) -> Dict[str, Any]:
        return {name: getattr(event, name) for name in EVENT_ROW_FIELDS}

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
            "nodes": [self._node_row(node) for node in self.node_records],
            "events": [self._event_row(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Trace":
        """Inverse of :meth:`to_dict`; rejects unknown schema versions.

        A malformed row raises ``ValueError`` naming its table and index.
        """
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema {schema!r} does not match "
                f"TRACE_SCHEMA_VERSION={TRACE_SCHEMA_VERSION}"
            )
        job_records = _build_rows("jobs", payload["jobs"], cls._job_from_row)
        node_records = _build_rows(
            "nodes", payload["nodes"], lambda row: NodeTraceRecord(**row)
        )
        events = _build_rows(
            "events", payload["events"], lambda row: EventRecord(**row)
        )
        header = payload["header"]
        try:
            return cls(
                cluster_name=header["cluster_name"],
                n_nodes=header["n_nodes"],
                n_gpus=header["n_gpus"],
                start=header["start"],
                end=header["end"],
                job_records=job_records,
                node_records=node_records,
                events=events,
                metadata=header.get("metadata", {}),
            )
        except _MALFORMED as exc:
            raise _RowError("header", 0, exc) from None

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
                fh.write(line("node", self._node_row(node)))
            for event in self.events:
                fh.write(line("event", self._event_row(event)))

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a :meth:`save` file back through :meth:`from_dict`.

        A malformed file raises ``ValueError`` naming the offending line.
        """
        path = Path(path)
        payload: Dict[str, Any] = {
            "schema": TRACE_SCHEMA_VERSION, "jobs": [], "nodes": [], "events": []
        }
        # The file line of each table row, to name it if it is malformed.
        line_of: Dict[str, List[int]] = {
            "header": [], "jobs": [], "nodes": [], "events": []
        }
        with path.open("rb") as fh:
            for number, line in enumerate(fh, start=1):
                try:
                    table, row = _parse_line(line)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {number}: {exc}") from None
                if table == "header":
                    if "header" in payload:
                        raise ValueError(
                            f"{path}: line {number}: second header row"
                        )
                    payload["header"] = row
                else:
                    payload[table].append(row)
                line_of[table].append(number)
        if "header" not in payload:
            raise ValueError(f"{path} has no header row")
        try:
            return cls.from_dict(payload)
        except _RowError as exc:
            number = line_of[exc.table][exc.index]
            raise ValueError(f"{path}: line {number}: {exc.reason}") from None


#: What a record constructor raises on a row of the wrong shape or type.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)

#: A saved line's ``type`` tag -> the :meth:`Trace.to_dict` table it feeds.
_LINE_TABLES = {
    "header": "header", "job": "jobs", "node": "nodes", "event": "events"
}


class _RowError(ValueError):
    """A malformed row of one :meth:`Trace.to_dict` table."""

    def __init__(self, table: str, index: int, exc: Exception):
        if isinstance(exc, KeyError):
            self.reason = f"missing field {exc.args[0]!r}"
        else:
            self.reason = str(exc)
        super().__init__(f"{table} row {index}: {self.reason}")
        self.table = table
        self.index = index


def _build_rows(table: str, rows, build) -> list:
    out = []
    for index, row in enumerate(rows):
        try:
            out.append(build(row))
        except _MALFORMED as exc:
            raise _RowError(table, index, exc) from None
    return out


def _parse_line(line: bytes) -> Tuple[str, Dict[str, Any]]:
    """One saved line -> (its ``to_dict`` table, the row without its tag)."""
    try:
        row = json.loads(line.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    if "type" not in row:
        raise ValueError('row has no "type" field')
    kind = row.pop("type")
    table = _LINE_TABLES.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise ValueError(f"unknown trace row type {kind!r}")
    return table, row
