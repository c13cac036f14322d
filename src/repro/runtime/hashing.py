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
same campaign).
"""

import enum
import hashlib
import json
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, TYPE_CHECKING

import numpy as np

from repro.workload.trace import TRACE_SCHEMA_VERSION

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
    # Exact-type fast path for the JSON vocabulary a trace payload is made
    # of.  Subclasses (IntEnum, str-mixin enums, numpy scalars, dict
    # subclasses) and non-str keys fall through to the generic checks.
    kind = type(obj)
    if (
        kind is str or kind is int or kind is float or kind is bool
        or obj is None
    ):
        return obj
    if kind is list or kind is tuple:
        return [canonicalize(v) for v in obj]
    if kind is dict and all(type(k) is str for k in obj):
        # encode_basestring_ascii(k) is json.dumps(k, sort_keys=True) for
        # an exact str, so this is the generic branch's order.
        return {
            "__dict__": [
                [k, canonicalize(obj[k])]
                for k in sorted(obj, key=encode_basestring_ascii)
            ]
        }
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


def _sha256_of(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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


def trace_digest(trace: "Trace") -> str:
    """Canonical digest of a trace's observable content.

    Two traces digest equal iff every job record, node record, event, and
    piece of non-instrumentation metadata matches exactly — the property
    the determinism tests assert across serial, pooled, and cache-loaded
    executions of the same (config, seed).
    """
    payload = trace.to_dict()
    header = dict(payload["header"])
    header["metadata"] = {
        k: v for k, v in header.get("metadata", {}).items() if k != "runtime"
    }
    payload["header"] = header
    return _sha256_of(canonicalize(payload))
