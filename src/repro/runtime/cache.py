"""Content-addressed on-disk trace cache.

Simulating a campaign is expensive; loading one is not.  The cache maps
``config_digest(config)`` — a stable hash of the fully-resolved campaign
config — to a serialized :class:`~repro.workload.trace.Trace`, so *any*
call site (benchmarks, examples, tests, the CLI) that asks for a
previously simulated configuration loads it instead of re-simulating.

Layout: ``<root>/v<CACHE_FORMAT_VERSION>/<digest[:2]>/<digest>.npz``
(entry format v2: compressed columnar blocks, no pickle).  Nothing read
from the cache directory is ever unpickled: a ``<digest>.pkl`` written by
entry format v1 is ignored (a miss, left untouched) and the next ``put``
writes the npz beside it.  Each entry stores the format/schema stamps;
a stamp mismatch or unreadable file is treated as a miss (and the entry
discarded), never as an error.

Integrity: every entry carries the trace's content digest
(``trace_digest``) in its stamps; reads recompute and compare, so silent
payload corruption (bit rot, a torn write that still parses) can never
serve a wrong trace.  A failed entry — unparseable, mis-stamped, or
digest-mismatched — is *quarantined* (moved under ``<root>/quarantine/``
and counted), treated as a miss, and rebuilt by the next ``put``; the
returned traces of the surrounding sweep are unaffected, which
``tests/resilience`` asserts under chaos-driven corruption.

Control knobs:

* ``REPRO_TRACE_CACHE=off`` (or ``0``/``no``/``false``/``disabled``)
  disables the cache process-wide.
* ``REPRO_TRACE_CACHE=/some/dir`` relocates it.
* ``TraceCache(enabled=False)`` / ``CampaignPool(cache=False)`` disable it
  per call site.
* ``TraceCache(verify=False)`` skips the digest re-check on read (the
  npz CRC still catches most corruption).
"""

import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.core.columns import ColumnarTrace
from repro.runtime.hashing import (
    CACHE_FORMAT_VERSION,
    config_digest,
    trace_digest,
)
from repro.workload.trace import TRACE_SCHEMA_VERSION, Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign import CampaignConfig

#: On-disk *entry* format (how a single cache file is encoded): 1 = pickle
#: of the ``to_dict()`` payload (no longer read), 2 = pickle-free columnar
#: npz.  Deliberately separate from ``CACHE_FORMAT_VERSION`` (part of the
#: cache *key*): bumping the entry encoding must not invalidate digests.
CACHE_ENTRY_VERSION = 2

ENV_VAR = "REPRO_TRACE_CACHE"
_DISABLE_VALUES = frozenset({"off", "0", "no", "none", "false", "disabled"})


def cache_enabled_by_env() -> bool:
    """Whether the environment permits caching at all."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _DISABLE_VALUES


def default_cache_root() -> Path:
    """Resolve the cache directory from the environment.

    ``REPRO_TRACE_CACHE`` (when set to a path) wins; otherwise
    ``$XDG_CACHE_HOME/repro/traces`` or ``~/.cache/repro/traces``.
    """
    env = os.environ.get(ENV_VAR, "").strip()
    if env and env.lower() not in _DISABLE_VALUES:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


class TraceCache:
    """Content-addressed trace store with hit/miss accounting."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        enabled: Optional[bool] = None,
        telemetry=None,
        verify: bool = True,
        source_label: Optional[str] = "cache",
    ):
        self.root = Path(root) if root is not None else default_cache_root()
        self.enabled = cache_enabled_by_env() if enabled is None else enabled
        #: Recompute the stored trace digest on every read and reject
        #: mismatches (quarantining the entry).  Entries without a digest
        #: stamp are served unverified either way.
        self.verify = verify
        #: Stamped into ``metadata["runtime"]["source"]`` on every hit;
        #: ``None`` preserves whatever provenance the stored trace
        #: carried (the :class:`~repro.backends.artifacts.ArtifactStore`
        #: posture — a shard a remote worker simulated stays
        #: ``"simulated"``).
        self.source_label = source_label
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        #: obs.Telemetry bundle; hit/miss/write traffic is mirrored into
        #: its tracer + registry when enabled.  Reassignable per call site
        #: (the CLI routes each seed's cache traffic to that seed's stream).
        self.telemetry = telemetry

    def _observe(self, outcome: str, digest: str) -> None:
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            # sim_time 0.0: cache traffic happens outside simulation time.
            telemetry.tracer.emit(
                f"cache.{outcome}", digest[:12], 0.0, digest=digest
            )
            if outcome == "quarantine":
                telemetry.metrics.counter(
                    "resilience_cache_quarantined_total"
                ).inc()
                return
            plural = {"hit": "hits", "miss": "misses", "write": "writes"}
            telemetry.metrics.counter(
                f"trace_cache_{plural[outcome]}_total"
            ).inc()

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def path_for(self, config: "CampaignConfig") -> Path:
        digest = config_digest(config)
        return self._entry_path(digest)

    def _entry_path(self, digest: str) -> Path:
        """Path of the primary (entry-format v2, npz) cache file."""
        return (
            self.root
            / f"v{CACHE_FORMAT_VERSION}"
            / digest[:2]
            / f"{digest}.npz"
        )

    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _quarantine(self, path: Path, digest: str) -> None:
        """Move a failed entry aside (never served again, kept for
        inspection) and account for it; falls back to unlink when the
        move itself fails."""
        target = self.quarantine_dir() / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        self.quarantined += 1
        self._observe("quarantine", digest)

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def _load_npz_entry(self, path: Path, digest: str) -> Trace:
        stamps = ColumnarTrace.read_extra(path) or {}
        if (
            stamps.get("cache_format") != CACHE_FORMAT_VERSION
            or stamps.get("trace_schema") != TRACE_SCHEMA_VERSION
            or stamps.get("digest") != digest
        ):
            raise ValueError("stale or mismatched cache entry")
        trace = ColumnarTrace.load_npz(path).to_trace()
        stored_sha = stamps.get("trace_sha")
        if self.verify and stored_sha is not None:
            actual = trace_digest(trace)
            if actual != stored_sha:
                raise ValueError(
                    f"cache entry integrity failure: stored trace digest "
                    f"{stored_sha[:12]} != recomputed {actual[:12]}"
                )
        return trace

    def get(self, config: "CampaignConfig") -> Optional[Trace]:
        """Return the cached trace for ``config``, or None on a miss."""
        if not self.enabled:
            return None
        return self.get_by_digest(config_digest(config))

    def get_by_digest(self, digest: str) -> Optional[Trace]:
        """Digest-keyed read: the entry machinery without config hashing.

        This is the surface :class:`~repro.backends.artifacts.ArtifactStore`
        shares across hosts — a caller holding only a content address
        (e.g. a work-queue dispatcher) loads the entry, with the same
        stamp checks, integrity verification, and quarantine treatment
        as a config-keyed read.
        """
        if not self.enabled:
            return None
        path = self._entry_path(digest)
        trace: Optional[Trace] = None
        try:
            trace = self._load_npz_entry(path, digest)
        except FileNotFoundError:
            pass
        except Exception:
            # Corrupt, stale, or integrity-failed entry: quarantine it
            # (a miss, never an error).
            self._quarantine(path, digest)
        if trace is None:
            self.misses += 1
            self._observe("miss", digest)
            return None
        self.hits += 1
        self._observe("hit", digest)
        if self.source_label is not None:
            runtime = dict(trace.metadata.get("runtime", {}))
            runtime["source"] = self.source_label
            trace.metadata["runtime"] = runtime
        return trace

    def put(self, config: "CampaignConfig", trace: Trace) -> Optional[Path]:
        """Store ``trace`` under ``config``'s digest (atomic replace).

        Writes an entry-format v2 npz: the trace's columnar blocks plus
        the format/schema stamps, compressed, with no pickle anywhere.
        """
        if not self.enabled:
            return None
        return self.put_by_digest(config_digest(config), trace)

    def put_by_digest(self, digest: str, trace: Trace) -> Optional[Path]:
        """Digest-keyed write (see :meth:`get_by_digest`)."""
        if not self.enabled:
            return None
        path = self._entry_path(digest)
        stamps: Dict[str, Any] = {
            "cache_entry": CACHE_ENTRY_VERSION,
            "cache_format": CACHE_FORMAT_VERSION,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "digest": digest,
            # Content digest of the stored trace: the read path recomputes
            # and compares, so a corrupted payload can never serve a hit.
            "trace_sha": trace_digest(trace),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                trace.columns.save_npz(fh, extra=stamps)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        self._observe("write", digest)
        return path

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
        }

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"TraceCache({self.root}, {state}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def cached_run_campaign(
    config: "CampaignConfig", cache: Optional[TraceCache] = None
) -> Trace:
    """Drop-in for :func:`repro.run_campaign` that consults the cache.

    With the default cache (honoring ``REPRO_TRACE_CACHE``), the first
    call for a given fully-resolved config simulates and stores; every
    later call — from any process — loads.
    """
    from repro.campaign import run_campaign

    if cache is None:
        cache = TraceCache()
    trace = cache.get(config)
    if trace is not None:
        return trace
    trace = run_campaign(config)
    cache.put(config, trace)
    return trace
