"""``ArtifactStore``: the shared, content-addressed result store.

Promoted out of :class:`~repro.resilience.checkpoint.CampaignCheckpoint`
(whose partial-result store it used to be): a digest-keyed,
integrity-verified trace store that *any* worker on *any* host can
serve or resume a shard from.  The work-queue backend's drainers write
completed shards here; the dispatcher (or a later resumed sweep, or a
different backend entirely) reads them back — the store, not the
process, is the unit of progress.

Three guarantees, inherited from the trace-cache entry machinery it is
built on and hardened for multi-writer use:

* **Content addressing** — entries are keyed by ``config_digest``: the
  same fully-resolved config maps to the same key from any process on
  any host, so duplicated work converges instead of conflicting.
* **Integrity** — every entry carries the trace's content digest;
  reads recompute and compare, and a failed entry (torn write, bit
  rot, foreign bytes) is quarantined and treated as a miss — a corrupt
  shard re-simulates, it never poisons a resumed sweep.
* **Write safety** — each ``put`` is an atomic temp-file +
  ``os.replace`` *and* holds a per-key advisory ``flock``, so two
  workers racing the same shard key leave one complete, verified
  entry — never interleaved bytes.  Platforms without ``fcntl`` fall
  back to the unlocked, still-atomic behavior.

Layout (the trace cache's entry layout)::

    <root>/v<CACHE_FORMAT_VERSION>/<digest[:2]>/<digest>.npz
    <root>/quarantine/...          # failed entries, kept for inspection
"""

import hashlib
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, TYPE_CHECKING, Union

try:  # POSIX advisory locking; absent on some platforms (e.g. Windows)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign import CampaignConfig
    from repro.workload.trace import Trace


@contextmanager
def _key_lock(root: Path, digest: str):
    """Exclusive cross-process lock for one store key's writes.

    The lock file lives in the system temp dir, keyed by the resolved
    store root + digest, so (1) the store directory holds only entries
    and (2) the lock file is never replaced out from under a waiting
    locker (``os.replace`` swaps the entry's inode, not the lock's).
    ``flock`` releases on close even if the holder dies mid-write.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    key = hashlib.sha256(
        f"{Path(root).resolve()}\x1f{digest}".encode("utf-8")
    ).hexdigest()[:16]
    lock_path = Path(tempfile.gettempdir()) / f"repro-artifact-{key}.lock"
    with open(lock_path, "a+", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


class ArtifactStore:
    """Digest-keyed, digest-verified, multi-writer-safe trace store.

    A thin policy layer over the trace cache's entry machinery: the
    cache answers "have I simulated this config before?"; the store
    answers "has *anyone, anywhere* completed this shard?".  It is
    keyed by raw digests (config objects are a convenience, not a
    requirement), never stamps provenance onto loaded traces (callers
    decide what a load *means*), and serializes same-key writes.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        verify: bool = True,
        telemetry=None,
    ):
        from repro.runtime.cache import TraceCache

        self.root = Path(root)
        #: Deliberately the cache's entry machinery: atomic writes,
        #: integrity stamps, quarantine of corrupt entries.  Enabled
        #: unconditionally — a store you constructed is a store you
        #: meant to use, independent of ``REPRO_TRACE_CACHE``.
        self._cache = TraceCache(
            root=self.root,
            enabled=True,
            telemetry=telemetry,
            verify=verify,
            source_label=None,
        )

    # ------------------------------------------------------------------
    # digest-keyed surface (the shared-store contract)
    # ------------------------------------------------------------------
    def get_digest(self, digest: str) -> Optional["Trace"]:
        """Load the trace stored under ``digest``, or None.

        A torn, stale, or integrity-failed entry is quarantined and
        reported as a miss — the caller re-simulates.
        """
        return self._cache.get_by_digest(digest)

    def put_digest(self, digest: str, trace: "Trace") -> Optional[Path]:
        """Store ``trace`` under ``digest`` (atomic, same-key locked)."""
        with _key_lock(self.root, digest):
            return self._cache.put_by_digest(digest, trace)

    def has_digest(self, digest: str) -> bool:
        """Whether an entry file exists for ``digest`` (no verification)."""
        return self._cache._entry_path(digest).exists()

    def __contains__(self, digest: str) -> bool:
        return self.has_digest(digest)

    def digests(self) -> Iterator[str]:
        """Yield every stored entry's digest (unverified directory scan)."""
        from repro.runtime.hashing import CACHE_FORMAT_VERSION

        version_dir = self.root / f"v{CACHE_FORMAT_VERSION}"
        if not version_dir.is_dir():
            return
        for shard in sorted(version_dir.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.suffix == ".npz":
                    yield entry.stem

    # ------------------------------------------------------------------
    # config-keyed convenience (the checkpoint contract)
    # ------------------------------------------------------------------
    def get(self, config: "CampaignConfig") -> Optional["Trace"]:
        from repro.runtime.hashing import config_digest

        return self.get_digest(config_digest(config))

    def path_for(self, config: "CampaignConfig") -> Path:
        """Primary entry path for ``config`` (exists only once stored)."""
        return self._cache.path_for(config)

    def put(self, config: "CampaignConfig", trace: "Trace") -> Optional[Path]:
        from repro.runtime.hashing import config_digest

        return self.put_digest(config_digest(config), trace)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        return self._cache.telemetry

    @telemetry.setter
    def telemetry(self, value) -> None:
        self._cache.telemetry = value

    def quarantine_dir(self) -> Path:
        return self._cache.quarantine_dir()

    def stats(self) -> Dict[str, int]:
        return self._cache.stats()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ArtifactStore({self.root}, hits={stats['hits']}, "
            f"misses={stats['misses']}, writes={stats['writes']}, "
            f"quarantined={stats['quarantined']})"
        )


__all__ = ["ArtifactStore"]
