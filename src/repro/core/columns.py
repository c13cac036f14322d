"""Columnar trace blocks: the typed-array data plane behind :class:`Trace`.

A campaign trace is logically three tables — job attempts, end-of-campaign
node records, and the health/cluster event stream.  The row-object form
(`JobAttemptRecord` / `NodeTraceRecord` / `EventRecord` lists) is the API
every module speaks, but analyzing a production-scale campaign by walking
those rows one at a time is what made figure generation O(rows * figures)
in pure Python.

:class:`ColumnarTrace` stores the same content as typed NumPy column
blocks:

* :class:`JobColumns` — one array per accounting-log field, with ragged
  ``node_ids`` in CSR form (flat ids + offsets) and interned string
  columns (project, hw_component);
* :class:`NodeColumns` — the per-node reliability counters;
* :class:`EventColumns` — event times, interned kind/subject, the exact
  JSON payload per event, plus *extracted* convenience columns
  (``node_id``, ``component_code``, ``check_code``, ``severity``) for the
  fields the analysis layer filters on constantly.

The contract is exactness: ``ColumnarTrace.from_trace(t).to_trace()``
reproduces ``t`` bit-for-bit at the ``Trace.to_dict()`` level (the
determinism-digest level), and the npz persistence used by the runtime
trace cache round-trips through ``save_npz``/``load_npz`` without pickle.

One normalization applies: event payloads travel as JSON, so tuples inside
``EventRecord.data`` come back as lists — the same normalization the
existing JSONL ``Trace.save``/``Trace.load`` path has always performed,
and invisible to ``trace_digest`` (which canonicalizes both identically).
"""

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.events import EventRecord

#: Version of the columnar block layout (npz key schema).  Independent of
#: ``TRACE_SCHEMA_VERSION`` (the row-level shape) and of the cache-key
#: format: bumping it invalidates *columnar* payloads only.
COLUMNAR_SCHEMA_VERSION = 1

#: Fixed, order-stable state vocabulary: the uint8 code of a state is its
#: position in JobState declaration order.
JOB_STATES: Tuple[JobState, ...] = tuple(JobState)
_STATE_CODE: Dict[JobState, int] = {s: i for i, s in enumerate(JOB_STATES)}
STATE_CODE_NODE_FAIL = _STATE_CODE[JobState.NODE_FAIL]
STATE_CODE_FAILED = _STATE_CODE[JobState.FAILED]
STATE_CODE_REQUEUED = _STATE_CODE[JobState.REQUEUED]
STATE_CODE_PREEMPTED = _STATE_CODE[JobState.PREEMPTED]
STATE_CODE_COMPLETED = _STATE_CODE[JobState.COMPLETED]


def state_code(state: JobState) -> int:
    """The stable uint8 code of a :class:`JobState`."""
    return _STATE_CODE[state]


# ----------------------------------------------------------------------
# string packing (npz-safe, pickle-free)
# ----------------------------------------------------------------------
def pack_strings(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack strings as a UTF-8 byte blob plus int64 offsets."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(b) for b in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return blob, offsets


def unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    """Inverse of :func:`pack_strings`."""
    raw = blob.tobytes()
    return [
        raw[offsets[i] : offsets[i + 1]].decode("utf-8")
        for i in range(len(offsets) - 1)
    ]


class StringTable:
    """Append-only string interning: string <-> small int code.

    Code ``-1`` is reserved for ``None`` (missing) and never appears in
    the table itself.
    """

    __slots__ = ("strings", "_codes")

    def __init__(self, strings: Optional[Iterable[str]] = None):
        self.strings: List[str] = []
        self._codes: Dict[str, int] = {}
        if strings is not None:
            for s in strings:
                self.intern(s)

    def intern(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        code = self._codes.get(value)
        if code is None:
            code = len(self.strings)
            self.strings.append(value)
            self._codes[value] = code
        return code

    def lookup(self, code: int) -> Optional[str]:
        return None if code < 0 else self.strings[code]

    def __len__(self) -> int:
        return len(self.strings)


def next_power_of_two(values: np.ndarray, minimum: int = 1) -> np.ndarray:
    """Vectorized ``power_of_two_bucket``: round up to a power of two.

    Matches :func:`repro.stats.quantiles.power_of_two_bucket` exactly for
    positive integers and power-of-two ``minimum`` (the only uses in the
    analysis layer: 1 for Fig. 6, 8 for the Fig. 7/8 node-level buckets).
    """
    if minimum < 1 or (minimum & (minimum - 1)) != 0:
        raise ValueError(f"minimum must be a power of two, got {minimum}")
    v = np.asarray(values, dtype=np.int64)
    if v.size and int(v.min()) <= 0:
        raise ValueError("values must be positive")
    mantissa, exponent = np.frexp(v.astype(np.float64))
    exact = mantissa == 0.5  # already a power of two
    out = np.where(exact, v, np.left_shift(np.int64(1), exponent))
    return np.maximum(out.astype(np.int64), minimum)


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, ``((v0 + v1) + v2) + ...``.

    ``np.sum`` adds pairwise and ``builtins.sum`` compensates on Python
    3.12+, so either can differ from a running accumulator in the last
    bit; ``np.cumsum`` is strictly sequential.  Totals that streaming
    estimators also accumulate (GPU-seconds, node-days) use this so both
    agree bit-for-bit.
    """
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _json_default(value: Any) -> Any:
    """JSON fallback for numpy scalars that may appear in event payloads."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"event payload value of type {type(value).__name__} is not "
        "JSON-serializable"
    )


# ----------------------------------------------------------------------
# job columns
# ----------------------------------------------------------------------
@dataclass
class JobColumns:
    """The accounting log as typed arrays (one element per attempt row)."""

    job_id: np.ndarray  # int64
    attempt: np.ndarray  # int32
    jobrun_id: np.ndarray  # int64
    project_code: np.ndarray  # int32 -> project_table
    qos: np.ndarray  # int8 (QosTier values)
    n_gpus: np.ndarray  # int32
    n_nodes: np.ndarray  # int32
    enqueue_time: np.ndarray  # float64
    start_time: np.ndarray  # float64
    end_time: np.ndarray  # float64
    state_code: np.ndarray  # uint8 -> JOB_STATES
    node_ids_flat: np.ndarray  # int64, CSR values
    node_ids_offsets: np.ndarray  # int64, CSR offsets (len n+1)
    hw_component_code: np.ndarray  # int32 -> hw_component_table, -1 = None
    hw_incident_id: np.ndarray  # int64 (valid where ~hw_incident_null)
    hw_incident_null: np.ndarray  # bool
    hw_attributed: np.ndarray  # bool
    failing_node_id: np.ndarray  # int64 (valid where ~failing_node_null)
    failing_node_null: np.ndarray  # bool
    instigator_job_id: np.ndarray  # int64 (valid where ~instigator_null)
    instigator_null: np.ndarray  # bool
    project_table: List[str] = field(default_factory=list)
    hw_component_table: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.job_id.shape[0])

    # -- derived vectors (cached) --------------------------------------
    @property
    def runtime(self) -> np.ndarray:
        """Seconds of scheduled runtime per attempt."""
        cached = getattr(self, "_runtime", None)
        if cached is None:
            cached = self.end_time - self.start_time
            self._runtime = cached
        return cached

    @property
    def queue_wait(self) -> np.ndarray:
        cached = getattr(self, "_queue_wait", None)
        if cached is None:
            cached = self.start_time - self.enqueue_time
            self._queue_wait = cached
        return cached

    @property
    def gpu_seconds(self) -> np.ndarray:
        cached = getattr(self, "_gpu_seconds", None)
        if cached is None:
            cached = self.runtime * self.n_gpus
            self._gpu_seconds = cached
        return cached

    @property
    def is_hw_interruption(self) -> np.ndarray:
        """Vector form of ``JobAttemptRecord.is_hw_interruption``."""
        cached = getattr(self, "_is_hw", None)
        if cached is None:
            cached = (self.state_code == STATE_CODE_NODE_FAIL) | (
                ~self.hw_incident_null
            )
            self._is_hw = cached
        return cached

    def hw_failure_mask(self, use_ground_truth: bool = True) -> np.ndarray:
        """The MTTF hardware-failure rule per attempt.

        Ground truth: any hardware interruption.  Observable: NODE_FAIL,
        or FAILED/REQUEUED with an attributed health check.
        """
        if use_ground_truth:
            return self.is_hw_interruption
        observable = (self.state_code == STATE_CODE_FAILED) | (
            self.state_code == STATE_CODE_REQUEUED
        )
        return (self.state_code == STATE_CODE_NODE_FAIL) | (
            observable & self.hw_attributed
        )

    def size_bucket(self) -> np.ndarray:
        """Fig. 7/8 bucketing: ceil to a server, then a power of two."""
        cached = getattr(self, "_size_bucket", None)
        if cached is None:
            from repro.cluster.components import GPUS_PER_NODE

            rounded = (
                (self.n_gpus.astype(np.int64) + GPUS_PER_NODE - 1)
                // GPUS_PER_NODE
            ) * GPUS_PER_NODE
            cached = next_power_of_two(rounded, minimum=GPUS_PER_NODE)
            self._size_bucket = cached
        return cached

    # -- construction ---------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[JobAttemptRecord]) -> "JobColumns":
        n = len(records)
        projects = StringTable()
        components = StringTable()
        job_id = np.empty(n, dtype=np.int64)
        attempt = np.empty(n, dtype=np.int32)
        jobrun_id = np.empty(n, dtype=np.int64)
        project_code = np.empty(n, dtype=np.int32)
        qos = np.empty(n, dtype=np.int8)
        n_gpus = np.empty(n, dtype=np.int32)
        n_nodes = np.empty(n, dtype=np.int32)
        enqueue_time = np.empty(n, dtype=np.float64)
        start_time = np.empty(n, dtype=np.float64)
        end_time = np.empty(n, dtype=np.float64)
        state = np.empty(n, dtype=np.uint8)
        hw_component_code = np.empty(n, dtype=np.int32)
        hw_incident_id = np.zeros(n, dtype=np.int64)
        hw_incident_null = np.empty(n, dtype=bool)
        hw_attributed = np.empty(n, dtype=bool)
        failing_node_id = np.zeros(n, dtype=np.int64)
        failing_node_null = np.empty(n, dtype=bool)
        instigator_job_id = np.zeros(n, dtype=np.int64)
        instigator_null = np.empty(n, dtype=bool)
        offsets = np.zeros(n + 1, dtype=np.int64)
        flat: List[int] = []
        for i, rec in enumerate(records):
            job_id[i] = rec.job_id
            attempt[i] = rec.attempt
            jobrun_id[i] = rec.jobrun_id
            project_code[i] = projects.intern(rec.project)
            qos[i] = int(rec.qos)
            n_gpus[i] = rec.n_gpus
            n_nodes[i] = rec.n_nodes
            enqueue_time[i] = rec.enqueue_time
            start_time[i] = rec.start_time
            end_time[i] = rec.end_time
            state[i] = _STATE_CODE[rec.state]
            hw_component_code[i] = components.intern(rec.hw_component)
            if rec.hw_incident_id is None:
                hw_incident_null[i] = True
            else:
                hw_incident_null[i] = False
                hw_incident_id[i] = rec.hw_incident_id
            hw_attributed[i] = rec.hw_attributed
            if rec.failing_node_id is None:
                failing_node_null[i] = True
            else:
                failing_node_null[i] = False
                failing_node_id[i] = rec.failing_node_id
            if rec.instigator_job_id is None:
                instigator_null[i] = True
            else:
                instigator_null[i] = False
                instigator_job_id[i] = rec.instigator_job_id
            flat.extend(rec.node_ids)
            offsets[i + 1] = len(flat)
        return cls(
            job_id=job_id,
            attempt=attempt,
            jobrun_id=jobrun_id,
            project_code=project_code,
            qos=qos,
            n_gpus=n_gpus,
            n_nodes=n_nodes,
            enqueue_time=enqueue_time,
            start_time=start_time,
            end_time=end_time,
            state_code=state,
            node_ids_flat=np.asarray(flat, dtype=np.int64),
            node_ids_offsets=offsets,
            hw_component_code=hw_component_code,
            hw_incident_id=hw_incident_id,
            hw_incident_null=hw_incident_null,
            hw_attributed=hw_attributed,
            failing_node_id=failing_node_id,
            failing_node_null=failing_node_null,
            instigator_job_id=instigator_job_id,
            instigator_null=instigator_null,
            project_table=projects.strings,
            hw_component_table=components.strings,
        )

    def node_ids_of(self, i: int) -> Tuple[int, ...]:
        lo, hi = self.node_ids_offsets[i], self.node_ids_offsets[i + 1]
        return tuple(int(v) for v in self.node_ids_flat[lo:hi])

    def record(self, i: int) -> JobAttemptRecord:
        """Reconstruct row ``i`` exactly."""
        return JobAttemptRecord(
            job_id=int(self.job_id[i]),
            attempt=int(self.attempt[i]),
            jobrun_id=int(self.jobrun_id[i]),
            project=self.project_table[int(self.project_code[i])],
            qos=QosTier(int(self.qos[i])),
            n_gpus=int(self.n_gpus[i]),
            n_nodes=int(self.n_nodes[i]),
            enqueue_time=float(self.enqueue_time[i]),
            start_time=float(self.start_time[i]),
            end_time=float(self.end_time[i]),
            state=JOB_STATES[int(self.state_code[i])],
            node_ids=self.node_ids_of(i),
            hw_component=(
                None
                if self.hw_component_code[i] < 0
                else self.hw_component_table[int(self.hw_component_code[i])]
            ),
            hw_incident_id=(
                None if self.hw_incident_null[i] else int(self.hw_incident_id[i])
            ),
            hw_attributed=bool(self.hw_attributed[i]),
            failing_node_id=(
                None if self.failing_node_null[i] else int(self.failing_node_id[i])
            ),
            instigator_job_id=(
                None if self.instigator_null[i] else int(self.instigator_job_id[i])
            ),
        )

    def to_records(self) -> List[JobAttemptRecord]:
        # Bulk-convert each column once (`.tolist()` yields native Python
        # scalars) instead of paying a numpy scalar extraction per field
        # per row; this is the cache-hit hot path.
        n = len(self)
        job_id = self.job_id.tolist()
        attempt = self.attempt.tolist()
        jobrun_id = self.jobrun_id.tolist()
        project_code = self.project_code.tolist()
        qos = [QosTier(q) for q in self.qos.tolist()]
        n_gpus = self.n_gpus.tolist()
        n_nodes = self.n_nodes.tolist()
        enqueue_time = self.enqueue_time.tolist()
        start_time = self.start_time.tolist()
        end_time = self.end_time.tolist()
        states = [JOB_STATES[c] for c in self.state_code.tolist()]
        offsets = self.node_ids_offsets.tolist()
        flat = self.node_ids_flat.tolist()
        hw_component_code = self.hw_component_code.tolist()
        hw_incident_null = self.hw_incident_null.tolist()
        hw_incident_id = self.hw_incident_id.tolist()
        hw_attributed = self.hw_attributed.tolist()
        failing_node_null = self.failing_node_null.tolist()
        failing_node_id = self.failing_node_id.tolist()
        instigator_null = self.instigator_null.tolist()
        instigator_job_id = self.instigator_job_id.tolist()
        comp_table = self.hw_component_table
        return [
            JobAttemptRecord(
                job_id=job_id[i],
                attempt=attempt[i],
                jobrun_id=jobrun_id[i],
                project=self.project_table[project_code[i]],
                qos=qos[i],
                n_gpus=n_gpus[i],
                n_nodes=n_nodes[i],
                enqueue_time=enqueue_time[i],
                start_time=start_time[i],
                end_time=end_time[i],
                state=states[i],
                node_ids=tuple(flat[offsets[i] : offsets[i + 1]]),
                hw_component=(
                    None
                    if hw_component_code[i] < 0
                    else comp_table[hw_component_code[i]]
                ),
                hw_incident_id=(
                    None if hw_incident_null[i] else hw_incident_id[i]
                ),
                hw_attributed=hw_attributed[i],
                failing_node_id=(
                    None if failing_node_null[i] else failing_node_id[i]
                ),
                instigator_job_id=(
                    None if instigator_null[i] else instigator_job_id[i]
                ),
            )
            for i in range(n)
        ]


# ----------------------------------------------------------------------
# node columns
# ----------------------------------------------------------------------
#: NodeTraceRecord integer counter fields, in dataclass order.
NODE_INT_FIELDS: Tuple[str, ...] = (
    "node_id",
    "rack_id",
    "pod_id",
    "gpu_swaps",
    "excl_jobid_count",
    "xid_cnt",
    "tickets",
    "out_count",
    "multi_node_node_fails",
    "single_node_node_fails",
    "single_node_jobs_seen",
)


@dataclass
class NodeColumns:
    """End-of-campaign node counters as int64 arrays."""

    ints: Dict[str, np.ndarray]  # field name -> int64 array
    is_lemon_truth: np.ndarray  # bool
    lemon_component_code: np.ndarray  # int32, -1 = None
    lemon_component_table: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.is_lemon_truth.shape[0])

    @classmethod
    def from_records(cls, records: Sequence) -> "NodeColumns":
        n = len(records)
        ints = {
            name: np.empty(n, dtype=np.int64) for name in NODE_INT_FIELDS
        }
        is_lemon = np.empty(n, dtype=bool)
        lemon_code = np.empty(n, dtype=np.int32)
        table = StringTable()
        for i, rec in enumerate(records):
            for name in NODE_INT_FIELDS:
                ints[name][i] = getattr(rec, name)
            is_lemon[i] = rec.is_lemon_truth
            lemon_code[i] = table.intern(rec.lemon_component)
        return cls(
            ints=ints,
            is_lemon_truth=is_lemon,
            lemon_component_code=lemon_code,
            lemon_component_table=table.strings,
        )

    def row_dict(self, i: int) -> Dict[str, Any]:
        """Row ``i`` in the exact ``asdict(NodeTraceRecord)`` key order."""
        ints = self.ints
        code = int(self.lemon_component_code[i])
        return {
            "node_id": int(ints["node_id"][i]),
            "rack_id": int(ints["rack_id"][i]),
            "pod_id": int(ints["pod_id"][i]),
            "gpu_swaps": int(ints["gpu_swaps"][i]),
            "is_lemon_truth": bool(self.is_lemon_truth[i]),
            "lemon_component": (
                None if code < 0 else self.lemon_component_table[code]
            ),
            "excl_jobid_count": int(ints["excl_jobid_count"][i]),
            "xid_cnt": int(ints["xid_cnt"][i]),
            "tickets": int(ints["tickets"][i]),
            "out_count": int(ints["out_count"][i]),
            "multi_node_node_fails": int(ints["multi_node_node_fails"][i]),
            "single_node_node_fails": int(ints["single_node_node_fails"][i]),
            "single_node_jobs_seen": int(ints["single_node_jobs_seen"][i]),
        }


# ----------------------------------------------------------------------
# event columns
# ----------------------------------------------------------------------
@dataclass
class EventColumns:
    """The event stream: typed time/kind/subject plus exact JSON payloads.

    ``node_id`` / ``component_code`` / ``check_code`` / ``severity`` /
    ``incident_id`` are *extracted accessors* over the payloads — the
    fields the analysis layer filters on — with ``-1`` (codes/severity)
    or the paired null mask (ids) marking absence.  The JSON blob remains
    the round-trip source of truth.
    """

    time: np.ndarray  # float64
    kind_code: np.ndarray  # int32 -> kind_table
    subject_code: np.ndarray  # int32 -> subject_table
    data_blob: np.ndarray  # uint8 (packed JSON strings)
    data_offsets: np.ndarray  # int64
    node_id: np.ndarray  # int64, -1 = absent
    component_code: np.ndarray  # int32 -> component_table, -1 = absent
    check_code: np.ndarray  # int32 -> check_table, -1 = absent
    severity: np.ndarray  # int16, -1 = absent
    incident_id: np.ndarray  # int64, valid where ~incident_null
    incident_null: np.ndarray  # bool
    kind_table: List[str] = field(default_factory=list)
    subject_table: List[str] = field(default_factory=list)
    component_table: List[str] = field(default_factory=list)
    check_table: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.time.shape[0])

    @classmethod
    def from_records(cls, records: Sequence[EventRecord]) -> "EventColumns":
        n = len(records)
        kinds = StringTable()
        subjects = StringTable()
        components = StringTable()
        checks = StringTable()
        time = np.empty(n, dtype=np.float64)
        kind_code = np.empty(n, dtype=np.int32)
        subject_code = np.empty(n, dtype=np.int32)
        node_id = np.full(n, -1, dtype=np.int64)
        component_code = np.full(n, -1, dtype=np.int32)
        check_code = np.full(n, -1, dtype=np.int32)
        severity = np.full(n, -1, dtype=np.int16)
        incident_id = np.zeros(n, dtype=np.int64)
        incident_null = np.ones(n, dtype=bool)
        payloads: List[str] = []
        for i, event in enumerate(records):
            time[i] = event.time
            kind_code[i] = kinds.intern(event.kind)
            subject_code[i] = subjects.intern(event.subject)
            data = event.data
            payloads.append(json.dumps(data, default=_json_default))
            nid = data.get("node_id")
            if isinstance(nid, (int, np.integer)) and not isinstance(nid, bool):
                node_id[i] = int(nid)
            component = data.get("component")
            if isinstance(component, str):
                component_code[i] = components.intern(component)
            check = data.get("check")
            if isinstance(check, str):
                check_code[i] = checks.intern(check)
            sev = data.get("severity")
            if isinstance(sev, (int, np.integer)) and not isinstance(sev, bool):
                severity[i] = int(sev)
            incident = data.get("incident_id")
            if isinstance(incident, (int, np.integer)) and not isinstance(
                incident, bool
            ):
                incident_null[i] = False
                incident_id[i] = int(incident)
        blob, offsets = pack_strings(payloads)
        return cls(
            time=time,
            kind_code=kind_code,
            subject_code=subject_code,
            data_blob=blob,
            data_offsets=offsets,
            node_id=node_id,
            component_code=component_code,
            check_code=check_code,
            severity=severity,
            incident_id=incident_id,
            incident_null=incident_null,
            kind_table=kinds.strings,
            subject_table=subjects.strings,
            component_table=components.strings,
            check_table=checks.strings,
        )

    # -- vectorized filters --------------------------------------------
    def code_of_kind(self, kind: str) -> int:
        """The kind's code, or ``-1`` if the kind never occurs."""
        try:
            return self.kind_table.index(kind)
        except ValueError:
            return -1

    def mask_for_kind(self, kind: str) -> np.ndarray:
        """Boolean mask of events whose kind matches (exact or ``"x."``
        prefix, mirroring ``EventLog.filter``)."""
        if kind.endswith("."):
            codes = [
                i for i, k in enumerate(self.kind_table) if k.startswith(kind)
            ]
            if not codes:
                return np.zeros(len(self), dtype=bool)
            return np.isin(self.kind_code, np.asarray(codes, dtype=np.int32))
        return self.kind_code == self.code_of_kind(kind)

    def times_for_kind(self, kind: str) -> np.ndarray:
        return self.time[self.mask_for_kind(kind)]

    def data_of(self, i: int) -> Dict[str, Any]:
        lo, hi = self.data_offsets[i], self.data_offsets[i + 1]
        return json.loads(self.data_blob[lo:hi].tobytes().decode("utf-8"))

    def record(self, i: int) -> EventRecord:
        return EventRecord(
            time=float(self.time[i]),
            kind=self.kind_table[int(self.kind_code[i])],
            subject=self.subject_table[int(self.subject_code[i])],
            data=self.data_of(i),
        )

    def to_records(self) -> List[EventRecord]:
        # Bulk-decode the payload blob once instead of slicing per event;
        # decoding the whole blob to str first keeps json off its per-call
        # bytes encoding-detection path, and offsets stay valid as string
        # indices because offsets index code points only for ASCII — so
        # non-ASCII payloads fall back to per-slice bytes decoding.
        raw = self.data_blob.tobytes()
        offsets = self.data_offsets.tolist()
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError:
            text = None
        decode = json.JSONDecoder().decode
        kind_table = self.kind_table
        subject_table = self.subject_table
        time = self.time.tolist()
        kind_code = self.kind_code.tolist()
        subject_code = self.subject_code.tolist()
        if text is not None:
            payloads = [
                decode(text[offsets[i] : offsets[i + 1]])
                for i in range(len(offsets) - 1)
            ]
        else:
            payloads = [
                decode(raw[offsets[i] : offsets[i + 1]].decode("utf-8"))
                for i in range(len(offsets) - 1)
            ]
        return [
            EventRecord(
                time=time[i],
                kind=kind_table[kind_code[i]],
                subject=subject_table[subject_code[i]],
                data=payloads[i],
            )
            for i in range(len(self))
        ]


# ----------------------------------------------------------------------
# the assembled columnar trace
# ----------------------------------------------------------------------
@dataclass
class ColumnarTrace:
    """A complete campaign trace in columnar form.

    Builders: :meth:`from_trace` (live row objects), :meth:`from_dict`
    (the ``Trace.to_dict`` schema), :meth:`load_npz`.  Consumers:
    :meth:`to_trace` / :meth:`to_dict` (exact inverses at digest level)
    and :meth:`save_npz`.
    """

    cluster_name: str
    n_nodes: int
    n_gpus: int
    start: float
    end: float
    jobs: JobColumns
    nodes: NodeColumns
    events: EventColumns
    metadata: Dict[str, Any] = field(default_factory=dict)

    # -- builders -------------------------------------------------------
    @classmethod
    def from_trace(cls, trace) -> "ColumnarTrace":
        return cls(
            cluster_name=trace.cluster_name,
            n_nodes=trace.n_nodes,
            n_gpus=trace.n_gpus,
            start=trace.start,
            end=trace.end,
            jobs=JobColumns.from_records(trace.job_records),
            nodes=NodeColumns.from_records(trace.node_records),
            events=EventColumns.from_records(trace.events),
            metadata=trace.metadata,
        )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ColumnarTrace":
        """Build from the exact ``Trace.to_dict`` schema."""
        from repro.workload.trace import Trace

        return cls.from_trace(Trace.from_dict(payload))

    # -- consumers ------------------------------------------------------
    def to_trace(self):
        from repro.workload.trace import NodeTraceRecord, Trace

        trace = Trace(
            cluster_name=self.cluster_name,
            n_nodes=self.n_nodes,
            n_gpus=self.n_gpus,
            start=self.start,
            end=self.end,
            job_records=self.jobs.to_records(),
            node_records=[
                NodeTraceRecord(**self.nodes.row_dict(i))
                for i in range(len(self.nodes))
            ],
            events=self.events.to_records(),
            metadata=self.metadata,
        )
        # The trace was born columnar; hand it the blocks so analysis
        # does not rebuild them from the rows we just materialized.
        trace._columns = self
        return trace

    def to_dict(self) -> Dict[str, Any]:
        """The exact ``Trace.to_dict`` schema, built from the columns."""
        return self.to_trace().to_dict()

    # -- persistence ----------------------------------------------------
    def _npz_payload(self) -> Dict[str, np.ndarray]:
        from repro.workload.trace import TRACE_SCHEMA_VERSION

        header = {
            "columnar_schema": COLUMNAR_SCHEMA_VERSION,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "cluster_name": self.cluster_name,
            "n_nodes": self.n_nodes,
            "n_gpus": self.n_gpus,
            "start": self.start,
            "end": self.end,
            "metadata": self.metadata,
            "tables": {
                "job_project": self.jobs.project_table,
                "job_hw_component": self.jobs.hw_component_table,
                "node_lemon_component": self.nodes.lemon_component_table,
                "event_kind": self.events.kind_table,
                "event_subject": self.events.subject_table,
                "event_component": self.events.component_table,
                "event_check": self.events.check_table,
            },
        }
        header_blob = np.frombuffer(
            json.dumps(header, default=_json_default).encode("utf-8"),
            dtype=np.uint8,
        )
        arrays: Dict[str, np.ndarray] = {"header_json": header_blob}
        jobs = self.jobs
        for name in (
            "job_id",
            "attempt",
            "jobrun_id",
            "project_code",
            "qos",
            "n_gpus",
            "n_nodes",
            "enqueue_time",
            "start_time",
            "end_time",
            "state_code",
            "node_ids_flat",
            "node_ids_offsets",
            "hw_component_code",
            "hw_incident_id",
            "hw_incident_null",
            "hw_attributed",
            "failing_node_id",
            "failing_node_null",
            "instigator_job_id",
            "instigator_null",
        ):
            arrays[f"jobs_{name}"] = getattr(jobs, name)
        for name, column in self.nodes.ints.items():
            arrays[f"nodes_{name}"] = column
        arrays["nodes_is_lemon_truth"] = self.nodes.is_lemon_truth
        arrays["nodes_lemon_component_code"] = self.nodes.lemon_component_code
        events = self.events
        for name in (
            "time",
            "kind_code",
            "subject_code",
            "data_blob",
            "data_offsets",
            "node_id",
            "component_code",
            "check_code",
            "severity",
            "incident_id",
            "incident_null",
        ):
            arrays[f"events_{name}"] = getattr(events, name)
        return arrays

    def save_npz(self, file, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write a compressed, pickle-free npz of every column block.

        ``extra`` (JSON-serializable) is stored alongside the blocks under
        the ``extra_json`` key — the trace cache uses it for entry stamps.
        """
        payload = self._npz_payload()
        if extra is not None:
            payload["extra_json"] = np.frombuffer(
                json.dumps(extra, default=_json_default).encode("utf-8"),
                dtype=np.uint8,
            )
        np.savez_compressed(file, **payload)

    @staticmethod
    def read_extra(file) -> Optional[Dict[str, Any]]:
        """The ``extra`` dict stored by :meth:`save_npz`, if any."""
        with np.load(file, allow_pickle=False) as data:
            if "extra_json" not in data:
                return None
            return json.loads(data["extra_json"].tobytes().decode("utf-8"))

    @classmethod
    def load_npz(cls, file) -> "ColumnarTrace":
        """Inverse of :meth:`save_npz`; validates the schema stamps."""
        from repro.workload.trace import TRACE_SCHEMA_VERSION

        with np.load(file, allow_pickle=False) as data:
            header = json.loads(data["header_json"].tobytes().decode("utf-8"))
            if header.get("columnar_schema") != COLUMNAR_SCHEMA_VERSION:
                raise ValueError(
                    f"columnar schema {header.get('columnar_schema')!r} does "
                    f"not match COLUMNAR_SCHEMA_VERSION={COLUMNAR_SCHEMA_VERSION}"
                )
            if header.get("trace_schema") != TRACE_SCHEMA_VERSION:
                raise ValueError(
                    f"trace schema {header.get('trace_schema')!r} does not "
                    f"match TRACE_SCHEMA_VERSION={TRACE_SCHEMA_VERSION}"
                )
            tables = header["tables"]
            jobs = JobColumns(
                job_id=data["jobs_job_id"],
                attempt=data["jobs_attempt"],
                jobrun_id=data["jobs_jobrun_id"],
                project_code=data["jobs_project_code"],
                qos=data["jobs_qos"],
                n_gpus=data["jobs_n_gpus"],
                n_nodes=data["jobs_n_nodes"],
                enqueue_time=data["jobs_enqueue_time"],
                start_time=data["jobs_start_time"],
                end_time=data["jobs_end_time"],
                state_code=data["jobs_state_code"],
                node_ids_flat=data["jobs_node_ids_flat"],
                node_ids_offsets=data["jobs_node_ids_offsets"],
                hw_component_code=data["jobs_hw_component_code"],
                hw_incident_id=data["jobs_hw_incident_id"],
                hw_incident_null=data["jobs_hw_incident_null"],
                hw_attributed=data["jobs_hw_attributed"],
                failing_node_id=data["jobs_failing_node_id"],
                failing_node_null=data["jobs_failing_node_null"],
                instigator_job_id=data["jobs_instigator_job_id"],
                instigator_null=data["jobs_instigator_null"],
                project_table=list(tables["job_project"]),
                hw_component_table=list(tables["job_hw_component"]),
            )
            nodes = NodeColumns(
                ints={
                    name: data[f"nodes_{name}"] for name in NODE_INT_FIELDS
                },
                is_lemon_truth=data["nodes_is_lemon_truth"],
                lemon_component_code=data["nodes_lemon_component_code"],
                lemon_component_table=list(tables["node_lemon_component"]),
            )
            events = EventColumns(
                time=data["events_time"],
                kind_code=data["events_kind_code"],
                subject_code=data["events_subject_code"],
                data_blob=data["events_data_blob"],
                data_offsets=data["events_data_offsets"],
                node_id=data["events_node_id"],
                component_code=data["events_component_code"],
                check_code=data["events_check_code"],
                severity=data["events_severity"],
                incident_id=data["events_incident_id"],
                incident_null=data["events_incident_null"],
                kind_table=list(tables["event_kind"]),
                subject_table=list(tables["event_subject"]),
                component_table=list(tables["event_component"]),
                check_table=list(tables["event_check"]),
            )
        return cls(
            cluster_name=header["cluster_name"],
            n_nodes=header["n_nodes"],
            n_gpus=header["n_gpus"],
            start=header["start"],
            end=header["end"],
            jobs=jobs,
            nodes=nodes,
            events=events,
            metadata=header.get("metadata", {}),
        )
