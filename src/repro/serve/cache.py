"""Config-digest keyed, bounded-LRU response cache for what-if queries.

The serving layer's answer to "a million identical queries must cost one
simulation" has two tiers:

1. this cache — rendered response *bodies* keyed by the SHA-256 of the
   canonicalized request payload, so an identical query is answered
   without recomputing anything (and bit-identically, because bodies are
   stored bytes);
2. the content-addressed :class:`repro.runtime.TraceCache` underneath —
   even after an LRU eviction, the expensive part (the campaign
   simulation) is still served from disk and only the cheap sweep
   arithmetic reruns.

The same class also holds the service's read memo (rendered
``/v1/health``, ``/v1/ettr``, ``/v1/mttf`` and ``/v1/lemons`` bodies,
keyed by path and query), so keys are any hashable value, not only
digests.

Eviction is deterministic: strictly least-recently-used (``get`` and
``put`` both refresh recency), with ties impossible because the ordered
dict records one slot per digest.  ``tests/serve/test_cache.py`` pins
the exact eviction order.
"""

import hashlib
import json
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from repro.runtime.hashing import canonicalize


def payload_digest(payload: Any) -> str:
    """Stable SHA-256 of a request payload (the response-cache key).

    Runs through :func:`repro.runtime.hashing.canonicalize`, so frozen
    dataclasses, enums, tuples, and numpy scalars all hash stably, and
    two payloads that would compute identically hash identically.
    """
    canonical = json.dumps(canonicalize(payload), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """Bounded LRU of response bodies with hit/miss/eviction accounting."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: Hashable) -> Optional[bytes]:
        """The cached body for ``digest`` (refreshing recency), or None."""
        body = self._entries.get(digest)
        if body is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return body

    def put(self, digest: Hashable, body: bytes) -> None:
        """Store ``body``; evicts the least-recently-used entry on overflow."""
        if not isinstance(body, (bytes, bytearray)):
            raise TypeError("response cache stores rendered bytes")
        self._entries[digest] = bytes(body)
        self._entries.move_to_end(digest)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, digest: Hashable) -> bool:
        """Membership probe: no recency refresh, no miss accounting."""
        return digest in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry; the hit/miss/eviction counts carry on."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"ResponseCache({len(self._entries)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
