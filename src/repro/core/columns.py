"""Columnar trace blocks: the typed-array data plane behind :class:`Trace`.

A campaign trace is logically three tables — job attempts, end-of-campaign
node records, and the health/cluster event stream.  The row-object form
(`JobAttemptRecord` / `NodeTraceRecord` / `EventRecord` lists) is the API
every module speaks, but analyzing a production-scale campaign by walking
those rows one at a time is what made figure generation O(rows * figures)
in pure Python.

:class:`ColumnarTrace` stores the same content as typed NumPy column
blocks, one per table: :class:`JobColumns`, :class:`NodeColumns` and
:class:`EventColumns`.  Each table is declared once, as its ``SCHEMA``:
the record's fields in order, each paired with the :class:`Codec` that
stores it — a plain typed array, an enum code, an interned string, a
nullable int, a ragged list in CSR form or a JSON payload.  The column
build (``from_records``), the record rebuild (``to_records``) and the npz
layout are all derived from the schemas.  Events also carry *extracted*
filter columns (``EVENT_FILTERS``: ``node_id``, ``component_code``,
``check_code``, ``severity``, ``incident_id`` + ``incident_null``) for the
payload fields the analysis layer filters on constantly.

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
from itertools import chain
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.jobtypes import JobAttemptRecord, JobState, QosTier
from repro.sim.events import EventRecord
from repro.workload.trace import NodeTraceRecord

#: Version of the columnar block layout (npz key schema).  Independent of
#: ``TRACE_SCHEMA_VERSION`` (the row-level shape) and of the cache-key
#: format: bumping it invalidates *columnar* payloads only.
COLUMNAR_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# string packing (npz-safe, pickle-free)
# ----------------------------------------------------------------------
def _offsets(lengths: Sequence[int]) -> np.ndarray:
    """CSR bounds ``[0, l0, l0 + l1, ...]`` as int64."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    if lengths:
        np.cumsum(lengths, out=offsets[1:])
    return offsets


def pack_strings(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack strings as a UTF-8 byte blob plus int64 offsets."""
    encoded = [s.encode("utf-8") for s in strings]
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return blob, _offsets([len(b) for b in encoded])


def unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    """Inverse of :func:`pack_strings`."""
    raw = blob.tobytes()
    bounds = offsets.tolist()
    spans = zip(bounds, bounds[1:])
    try:
        # Byte offsets index code points only in pure ASCII (the common
        # case), which then decodes once and slices the text.
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        return [raw[lo:hi].decode("utf-8") for lo, hi in spans]
    return [text[lo:hi] for lo, hi in spans]


class StringTable:
    """Append-only string interning: string <-> small int code.

    Code ``-1`` is reserved for ``None`` (missing) and never appears in
    the table itself.
    """

    __slots__ = ("strings", "_codes")

    def __init__(self):
        self.strings: List[str] = []
        self._codes: Dict[str, int] = {}

    def intern(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        code = self._codes.get(value)
        if code is None:
            code = len(self.strings)
            self.strings.append(value)
            self._codes[value] = code
        return code

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
    estimators also accumulate (GPU-seconds) use this so both agree
    bit-for-bit.
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
# codecs: how one record field is stored as columns
# ----------------------------------------------------------------------
class Codec:
    """How one record field is stored as column arrays.

    ``encode`` turns the field's values, one per row, into the arrays
    :meth:`arrays` names (plus the string table :meth:`table` names, if
    any); ``decode`` turns those back into the exact values.  The names
    are column attributes and, prefixed with the table's key, npz keys.
    """

    def arrays(self, name: str) -> Tuple[str, ...]:
        return (name,)

    def table(self, name: str) -> Optional[str]:
        return None

    def encode(self, name: str, values: List[Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def decode(self, name: str, columns: "Columns") -> List[Any]:
        raise NotImplementedError


class Plain(Codec):
    """The values themselves, in a typed array."""

    def __init__(self, dtype):
        self.dtype = dtype

    def encode(self, name, values):
        return {name: np.array(values, dtype=self.dtype)}

    def decode(self, name, columns):
        return getattr(columns, name).tolist()


class EnumByValue(Codec):
    """An enum member stored as its value."""

    def __init__(self, enum, dtype):
        self.dtype = dtype
        self.members = {member.value: member for member in enum}
        self.values = {member: member.value for member in enum}

    def encode(self, name, values):
        by_member = self.values
        codes = [by_member[v] for v in values]
        return {name: np.array(codes, dtype=self.dtype)}

    def decode(self, name, columns):
        members = self.members
        return [members[v] for v in getattr(columns, name).tolist()]


class EnumByOrder(Codec):
    """An enum member stored in ``<field>_code`` as its uint8 position in
    declaration order."""

    def __init__(self, enum):
        self.members = tuple(enum)
        self.codes = {member: i for i, member in enumerate(self.members)}

    def arrays(self, name):
        return (f"{name}_code",)

    def encode(self, name, values):
        (code,) = self.arrays(name)
        codes = self.codes
        return {code: np.array([codes[v] for v in values], dtype=np.uint8)}

    def decode(self, name, columns):
        (code,) = self.arrays(name)
        members = self.members
        return [members[c] for c in getattr(columns, code).tolist()]


class Interned(Codec):
    """An optional string: int32 ``<field>_code`` into ``<field>_table``,
    with ``-1`` for None."""

    @staticmethod
    def accepts(value: Any) -> bool:
        return isinstance(value, str)

    def arrays(self, name):
        return (f"{name}_code",)

    def table(self, name):
        return f"{name}_table"

    def encode(self, name, values):
        (code,) = self.arrays(name)
        strings = StringTable()
        intern = strings.intern
        codes = [-1 if v is None else intern(v) for v in values]
        return {
            code: np.array(codes, dtype=np.int32),
            self.table(name): strings.strings,
        }

    def decode(self, name, columns):
        (code,) = self.arrays(name)
        # Code -1 indexes the trailing None.
        strings = getattr(columns, self.table(name)) + [None]
        return [strings[c] for c in getattr(columns, code).tolist()]


class NullableInt(Codec):
    """An optional int.  With ``mask``, a bool array of that name marks
    None and the value reads 0; without, None is stored as ``-1``."""

    def __init__(self, dtype=np.int64, mask: Optional[str] = None):
        self.dtype = dtype
        self.mask = mask

    @staticmethod
    def accepts(value: Any) -> bool:
        return isinstance(value, (int, np.integer)) and not isinstance(
            value, bool
        )

    def arrays(self, name):
        return (name,) if self.mask is None else (name, self.mask)

    def encode(self, name, values):
        if self.mask is None:
            ints = [-1 if v is None else v for v in values]
            return {name: np.array(ints, dtype=self.dtype)}
        ints = [0 if v is None else v for v in values]
        return {
            name: np.array(ints, dtype=self.dtype),
            self.mask: np.array([v is None for v in values], dtype=bool),
        }

    def decode(self, name, columns):
        values = getattr(columns, name).tolist()
        if self.mask is None:
            return [None if v == -1 else v for v in values]
        nulls = getattr(columns, self.mask).tolist()
        return [None if null else v for v, null in zip(values, nulls)]


class Ragged(Codec):
    """Int tuples of any length in CSR form: int64 ``<field>_flat`` values
    and ``<field>_offsets`` bounds (one more than the rows)."""

    def arrays(self, name):
        return (f"{name}_flat", f"{name}_offsets")

    def encode(self, name, values):
        flat, offsets = self.arrays(name)
        return {
            flat: np.fromiter(chain.from_iterable(values), dtype=np.int64),
            offsets: _offsets([len(v) for v in values]),
        }

    def decode(self, name, columns):
        flat, offsets = (
            getattr(columns, a).tolist() for a in self.arrays(name)
        )
        return [tuple(flat[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]


class Json(Codec):
    """A dict payload as JSON text, packed into ``<field>_blob`` (UTF-8
    bytes) and ``<field>_offsets``."""

    def arrays(self, name):
        return (f"{name}_blob", f"{name}_offsets")

    def encode(self, name, values):
        texts = [json.dumps(v, default=_json_default) for v in values]
        return dict(zip(self.arrays(name), pack_strings(texts)))

    def decode(self, name, columns):
        blob, offsets = (getattr(columns, a) for a in self.arrays(name))
        decode = json.JSONDecoder().decode
        return [decode(text) for text in unpack_strings(blob, offsets)]


#: Job states are stored by declaration order: the uint8 code of a state
#: is its position in ``JOB_STATES``.
_STATE = EnumByOrder(JobState)
JOB_STATES: Tuple[JobState, ...] = _STATE.members
STATE_CODE_NODE_FAIL = _STATE.codes[JobState.NODE_FAIL]
STATE_CODE_PREEMPTED = _STATE.codes[JobState.PREEMPTED]
STATE_CODE_COMPLETED = _STATE.codes[JobState.COMPLETED]


def state_code(state: JobState) -> int:
    """The stable uint8 code of a :class:`JobState`."""
    return _STATE.codes[state]


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
Schema = Tuple[Tuple[str, Codec], ...]


class Columns:
    """One trace table as typed arrays, laid out by the class's schema.

    ``SCHEMA`` pairs each field of ``RECORD``, in order, with its codec;
    ``FILTERS`` adds columns that are built but not decoded.  Every array
    and string table the codecs name is an attribute.  In the npz an
    array is stored as ``<NPZ_KEY>_<array>`` and a string table under
    ``<TABLE_KEY>_<field>`` in the header's ``tables``.
    """

    RECORD: type
    SCHEMA: Schema
    FILTERS: Schema = ()
    NPZ_KEY: str
    TABLE_KEY: str

    def __init__(self, columns: Dict[str, Any]):
        self.__dict__.update(columns)

    def __len__(self) -> int:
        # Every schema starts with a plain column, one element per row.
        return len(getattr(self, self.SCHEMA[0][0]))

    @classmethod
    def from_records(cls, records: Sequence) -> "Columns":
        columns: Dict[str, Any] = {}
        for name, codec in cls.SCHEMA:
            values = list(map(attrgetter(name), records))
            columns.update(codec.encode(name, values))
        return cls(columns)

    def to_records(self) -> list:
        values = [codec.decode(name, self) for name, codec in self.SCHEMA]
        return list(map(self.RECORD, *values))

    # -- persistence ----------------------------------------------------
    def npz_arrays(self) -> Dict[str, np.ndarray]:
        return {
            f"{self.NPZ_KEY}_{array}": getattr(self, array)
            for name, codec in self.SCHEMA + self.FILTERS
            for array in codec.arrays(name)
        }

    def npz_tables(self) -> Dict[str, List[str]]:
        return {
            f"{self.TABLE_KEY}_{name}": getattr(self, codec.table(name))
            for name, codec in self.SCHEMA + self.FILTERS
            if codec.table(name) is not None
        }

    @classmethod
    def from_npz(cls, data, tables: Dict[str, List[str]]) -> "Columns":
        columns: Dict[str, Any] = {}
        for name, codec in cls.SCHEMA + cls.FILTERS:
            for array in codec.arrays(name):
                columns[array] = data[f"{cls.NPZ_KEY}_{array}"]
            table = codec.table(name)
            if table is not None:
                columns[table] = list(tables[f"{cls.TABLE_KEY}_{name}"])
        return cls(columns)


class JobColumns(Columns):
    """The accounting log as typed arrays (one element per attempt row)."""

    RECORD = JobAttemptRecord
    SCHEMA = (
        ("job_id", Plain(np.int64)),
        ("attempt", Plain(np.int32)),
        ("jobrun_id", Plain(np.int64)),
        ("project", Interned()),
        ("qos", EnumByValue(QosTier, np.int8)),
        ("n_gpus", Plain(np.int32)),
        ("n_nodes", Plain(np.int32)),
        ("enqueue_time", Plain(np.float64)),
        ("start_time", Plain(np.float64)),
        ("end_time", Plain(np.float64)),
        ("state", _STATE),
        ("node_ids", Ragged()),
        ("hw_component", Interned()),
        ("hw_incident_id", NullableInt(mask="hw_incident_null")),
        ("hw_attributed", Plain(bool)),
        ("failing_node_id", NullableInt(mask="failing_node_null")),
        ("instigator_job_id", NullableInt(mask="instigator_null")),
    )
    NPZ_KEY = "jobs"
    TABLE_KEY = "job"

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


class NodeColumns(Columns):
    """End-of-campaign node counters: int64 counts, the lemon ground
    truth and the interned lemon component."""

    RECORD = NodeTraceRecord
    SCHEMA = (
        ("node_id", Plain(np.int64)),
        ("rack_id", Plain(np.int64)),
        ("pod_id", Plain(np.int64)),
        ("gpu_swaps", Plain(np.int64)),
        ("is_lemon_truth", Plain(bool)),
        ("lemon_component", Interned()),
        ("excl_jobid_count", Plain(np.int64)),
        ("xid_cnt", Plain(np.int64)),
        ("tickets", Plain(np.int64)),
        ("out_count", Plain(np.int64)),
        ("multi_node_node_fails", Plain(np.int64)),
        ("single_node_node_fails", Plain(np.int64)),
        ("single_node_jobs_seen", Plain(np.int64)),
    )
    NPZ_KEY = "nodes"
    TABLE_KEY = "node"


#: Payload keys the analysis layer filters on, extracted into columns of
#: their own: ``(key, codec)``.  A value the codec does not accept (absent
#: or of another type) is stored as None: ``-1`` or the null mask.
EVENT_FILTERS: Schema = (
    ("node_id", NullableInt(np.int64)),
    ("component", Interned()),
    ("check", Interned()),
    ("severity", NullableInt(np.int16)),
    ("incident_id", NullableInt(mask="incident_null")),
)


class EventColumns(Columns):
    """The event stream: typed time/kind/subject plus exact JSON payloads.

    The ``EVENT_FILTERS`` columns are extracted from the payloads; the
    JSON blob remains the round-trip source of truth.
    """

    RECORD = EventRecord
    SCHEMA = (
        ("time", Plain(np.float64)),
        ("kind", Interned()),
        ("subject", Interned()),
        ("data", Json()),
    )
    FILTERS = EVENT_FILTERS
    NPZ_KEY = "events"
    TABLE_KEY = "event"

    @classmethod
    def from_records(cls, records: Sequence[EventRecord]) -> "EventColumns":
        events = super().from_records(records)
        payloads = [event.data for event in records]
        for key, codec in cls.FILTERS:
            accepts = codec.accepts
            values = [
                None if (v := data.get(key)) is None or not accepts(v) else v
                for data in payloads
            ]
            vars(events).update(codec.encode(key, values))
        return events

    # -- vectorized filters --------------------------------------------
    def code_of_kind(self, kind: str) -> int:
        """The kind's code, or ``-1`` if the kind never occurs."""
        try:
            return self.kind_table.index(kind)
        except ValueError:
            return -1

    def mask_for_kind(self, kind: str) -> np.ndarray:
        """Boolean mask of events whose kind matches ``kind`` exactly, or
        by prefix when ``kind`` ends with ``"."``."""
        if kind.endswith("."):
            codes = [
                i for i, k in enumerate(self.kind_table) if k.startswith(kind)
            ]
            if not codes:
                return np.zeros(len(self), dtype=bool)
            return np.isin(self.kind_code, np.asarray(codes, dtype=np.int32))
        return self.kind_code == self.code_of_kind(kind)


# ----------------------------------------------------------------------
# the assembled columnar trace
# ----------------------------------------------------------------------
@dataclass
class ColumnarTrace:
    """A complete campaign trace in columnar form.

    Builders: :meth:`from_trace` (live row objects) and :meth:`load_npz`.
    Consumers: :meth:`to_trace` (the exact inverse at digest level) and
    :meth:`save_npz`.
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

    @property
    def _blocks(self) -> Tuple[Columns, ...]:
        return (self.jobs, self.nodes, self.events)

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

    # -- consumers ------------------------------------------------------
    def to_trace(self):
        from repro.workload.trace import Trace

        trace = Trace(
            cluster_name=self.cluster_name,
            n_nodes=self.n_nodes,
            n_gpus=self.n_gpus,
            start=self.start,
            end=self.end,
            job_records=self.jobs.to_records(),
            node_records=self.nodes.to_records(),
            events=self.events.to_records(),
            metadata=self.metadata,
        )
        # The trace was born columnar; hand it the blocks so analysis
        # does not rebuild them from the rows we just materialized.
        trace._columns = self
        return trace

    # -- persistence ----------------------------------------------------
    def _npz_payload(self) -> Dict[str, np.ndarray]:
        from repro.workload.trace import TRACE_SCHEMA_VERSION

        tables: Dict[str, List[str]] = {}
        for block in self._blocks:
            tables.update(block.npz_tables())
        header = {
            "columnar_schema": COLUMNAR_SCHEMA_VERSION,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "cluster_name": self.cluster_name,
            "n_nodes": self.n_nodes,
            "n_gpus": self.n_gpus,
            "start": self.start,
            "end": self.end,
            "metadata": self.metadata,
            "tables": tables,
        }
        header_blob = np.frombuffer(
            json.dumps(header, default=_json_default).encode("utf-8"),
            dtype=np.uint8,
        )
        arrays: Dict[str, np.ndarray] = {"header_json": header_blob}
        for block in self._blocks:
            arrays.update(block.npz_arrays())
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
            jobs = JobColumns.from_npz(data, tables)
            nodes = NodeColumns.from_npz(data, tables)
            events = EventColumns.from_npz(data, tables)
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
