"""Stable content hashes for campaign configs and traces.

The trace cache is *content-addressed*: a campaign's cache key is a SHA-256
over the fully-resolved :class:`~repro.campaign.CampaignConfig` — cluster
spec, workload profile (resolved, not the ``None`` placeholder), seed, and
every policy flag — plus the cache-format and trace-schema stamps.  Two
configs that would simulate identically hash identically; any change to a
knob, to the trace schema, or to the package version produces a different
key, so the cache can never serve a stale or mismatched trace.

``trace_digest`` is the determinism oracle used by tests and benchmarks: a
canonical hash of a trace's observable content (the ``runtime``
instrumentation block is excluded, since wall time and cache provenance
legitimately differ between a simulated and a cache-loaded copy of the
same campaign).  The trace cache stamps every entry with it and
recomputes it on every read, so it is written for speed: it streams the
canonical text of each table straight into SHA-256 from per-schema
templates, and only the small header and values outside the exact JSON
vocabulary go through the generic ``canonicalize``, which config
digests and what-if cache keys use.
"""

import enum
import hashlib
import json
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import attrgetter
from typing import Any, Optional, TYPE_CHECKING

import numpy as np

from repro.workload.trace import (
    EVENT_ROW_FIELDS,
    JOB_ROW_CASTS,
    JOB_ROW_FIELDS,
    NODE_ROW_FIELDS,
    TRACE_SCHEMA_VERSION,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign import CampaignConfig
    from repro.workload.trace import Trace

#: Bump to invalidate every existing cache entry (e.g. when the hashing
#: scheme itself changes).  Trace-shape changes are covered separately by
#: ``TRACE_SCHEMA_VERSION``.
CACHE_FORMAT_VERSION = 1


def canonicalize(obj: Any) -> Any:
    """Reduce an object to a JSON-stable structure for hashing.

    Handles the vocabulary config objects are built from: nested (frozen)
    dataclasses, enums, dicts with non-string keys, tuples/frozensets, and
    numpy scalars.  Dataclasses are tagged with their class name so two
    different types with identical fields cannot collide.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: canonicalize(getattr(obj, f.name))
                for f in fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if isinstance(obj, dict):
        items = [
            [canonicalize(k), canonicalize(v)] for k, v in obj.items()
        ]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__dict__": items}
    if isinstance(obj, (frozenset, set)):
        members = [canonicalize(v) for v in obj]
        members.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return {"__set__": members}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonicalize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for hashing; "
        "add explicit support or make the config field a dataclass"
    )


_SEPARATORS = (",", ":")


def _canonical_text(obj: Any) -> str:
    """The canonical JSON text of ``obj``: what the digests hash."""
    return json.dumps(
        canonicalize(obj), sort_keys=True, separators=_SEPARATORS
    )


def _sha256_of(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=_SEPARATORS)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_digest(config: "CampaignConfig") -> str:
    """Cache key of a campaign: hash of the fully-resolved config."""
    from repro import __version__

    resolved = canonicalize(config)
    # Replace the profile placeholder with the profile that will actually
    # run, so `profile=None` and an explicitly passed default profile map
    # to the same cache entry.
    resolved["fields"]["profile"] = canonicalize(config.resolve_profile())
    payload = {
        "cache_format": CACHE_FORMAT_VERSION,
        "trace_schema": TRACE_SCHEMA_VERSION,
        "repro_version": __version__,
        "config": resolved,
    }
    return _sha256_of(payload)


# ----------------------------------------------------------------------
# The trace digest: canonical text written straight from the records
# ----------------------------------------------------------------------
#
# ``trace_digest`` hashes the text ``_canonical_text`` gives for the
# ``to_dict`` payload without building the payload or its canonical
# tree.  A dict whose keys are all exact ``str`` canonicalizes to
# ``{"__dict__": [[k, v], ...]}`` with its keys in ``json.dumps`` order,
# which is ``encode_basestring_ascii`` order, so each key set becomes
# one ``str.format`` template.  Exact JSON scalars are written as
# ``json.dumps`` writes them; every other value (NumPy scalars, enums,
# dict subclasses, non-str keys, sets, dataclasses) takes
# ``_canonical_text``.  No container outlives the row it encodes, so a
# digest leaves nothing for the cyclic GC to traverse.


def _float_text(value: float) -> str:
    # json.dumps writes a finite float as its repr and spells out the rest.
    return float.__repr__(value) if isfinite(value) else json.dumps(value)


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dict_template(keys: tuple) -> Optional[str]:
    """Format string of a dict with ``keys``, filled in key order.

    ``None`` unless every key is an exact ``str``.
    """
    if any(type(key) is not str for key in keys):
        return None
    ordered = sorted(
        (encode_basestring_ascii(key), i) for i, key in enumerate(keys)
    )
    pairs = ",".join(
        "[" + text.replace("{", "{{").replace("}", "}}") + ",{%d}]" % i
        for text, i in ordered
    )
    return '{{"__dict__":[' + pairs + "]}}"


def _value_encoder():
    """``value -> canonical text`` for one digest.

    Dict templates are memoized per key tuple for the encoder's lifetime:
    event data repeats a handful of key sets.
    """
    templates: dict = {}
    scalar_text = _SCALAR_TEXT.get

    def value_text(value: Any) -> str:
        kind = type(value)
        scalar = scalar_text(kind)
        if scalar is not None:
            return scalar(value)
        if kind is list or kind is tuple:
            return "[" + ",".join([value_text(v) for v in value]) + "]"
        if kind is dict:
            keys = tuple(value)
            template = templates.get(keys, False)
            if template is False:
                template = templates[keys] = _dict_template(keys)
            if template is not None:
                return template.format(
                    *[value_text(v) for v in value.values()]
                )
        return _canonical_text(value)

    return value_text


def _table_text(records, fields: tuple, casts: dict, value_text) -> str:
    """Canonical text of a list of row dicts, built from the records."""
    template = _dict_template(fields)
    row_values = attrgetter(*fields)
    cast_at = [(fields.index(name), cast) for name, cast in casts.items()]
    scalar_text = _SCALAR_TEXT.get
    rows = []
    for record in records:
        row = row_values(record)
        if cast_at:
            row = list(row)
            for i, cast in cast_at:
                row[i] = cast(row[i])
        rows.append(template.format(
            *[scalar_text(type(v), value_text)(v) for v in row]
        ))
    return "[" + ",".join(rows) + "]"


def trace_digest(trace: "Trace") -> str:
    """Canonical digest of a trace's observable content.

    Two traces digest equal iff every job record, node record, event, and
    piece of non-instrumentation metadata matches exactly — the property
    the determinism tests assert across serial, pooled, and cache-loaded
    executions of the same (config, seed).

    It is the SHA-256 of ``_canonical_text(trace.to_dict())`` with
    ``metadata["runtime"]`` left out, written one table at a time from
    the row schema.  The small, free-form header is canonicalized.
    """
    header = trace._header_row()
    header["metadata"] = {
        k: v for k, v in header.get("metadata", {}).items() if k != "runtime"
    }
    value_text = _value_encoder()
    # Encoded in the payload's key order, so an unencodable value raises
    # the error the payload's canonicalization raises first.
    tables = {
        "schema": value_text(TRACE_SCHEMA_VERSION),
        "header": _canonical_text(header),
        "jobs": _table_text(
            trace.job_records, JOB_ROW_FIELDS, JOB_ROW_CASTS, value_text
        ),
        "nodes": _table_text(
            trace.node_records, NODE_ROW_FIELDS, {}, value_text
        ),
        "events": _table_text(trace.events, EVENT_ROW_FIELDS, {}, value_text),
    }
    sha = hashlib.sha256(b'{"__dict__":[')
    for i, name in enumerate(sorted(tables, key=encode_basestring_ascii)):
        separator = "," if i else ""
        sha.update(f"{separator}[{encode_basestring_ascii(name)},".encode())
        sha.update(tables[name].encode())
        sha.update(b"]")
    sha.update(b"]}")
    return sha.hexdigest()
