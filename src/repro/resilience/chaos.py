"""Deterministic fault injection for the execution layer itself.

The simulator injects *modeled* faults (GPU failures, link flaps) into
the simulated cluster; :class:`ChaosPolicy` injects *real* faults into
the harness that runs the simulator — worker processes killed mid-seed,
trace-cache entries corrupted or truncated on disk, malformed or late
rows pushed at the live estimators.
It mirrors how :mod:`repro.network.faults` degrades fabric links: the
injection is an explicit, seeded policy object, so every recovery path
in :mod:`repro.runtime` and :mod:`repro.live` is testable and every
chaotic run is exactly reproducible.

All decisions are *stateless* functions of ``(seed, decision key)`` —
a keyed blake2b hash mapped to a unit float — so the same policy object
makes the same calls from any process, in any order, on any attempt
count.  That statelessness is what lets a chaos run assert bit-identical
results against a fault-free run: the faults land deterministically, the
recovery machinery absorbs them, and the surviving traces digest equal.
"""

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TYPE_CHECKING

from repro.sim.timeunits import HOUR

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign import CampaignConfig
    from repro.runtime.cache import TraceCache


class ChaosError(RuntimeError):
    """Base class for faults raised (not killed) by chaos injection."""


class WorkerKilled(ChaosError):
    """An in-process stand-in for a worker that died mid-seed."""


#: Exit status used when chaos kills a real worker process (mirrors a
#: SIGKILLed process's 128+9 shell convention).
CHAOS_EXIT_CODE = 137


def _unit_draw(seed: int, *key: object) -> float:
    """Deterministic uniform [0, 1) draw keyed on ``(seed, *key)``."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode("utf-8"))
    for part in key:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    (value,) = struct.unpack(">Q", h.digest())
    return value / 2.0**64


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded injection plan over the harness's own fault surface.

    Rates are per-decision probabilities; bounds keep chaos survivable
    (``max_kills_per_config`` guarantees some attempt of every config
    succeeds, so a chaotic sweep still terminates).

    Attributes:
        seed: Root of every injection decision.
        worker_kill_rate: Probability a simulation attempt dies mid-seed
            (``os._exit`` in a real worker, :class:`WorkerKilled` inline).
        max_kills_per_config: Hard bound on kill injections per config —
            attempts past this many are never killed.
        cache_corruption_rate: Probability a cache entry is corrupted on
            disk before it is read back (torn write / bit rot model).
        malformed_item_rate: Probability a junk stream item is injected
            ahead of a real one during live replay.
        late_item_rate: Probability an injected junk item is backdated
            behind the watermark (exercises lateness handling too).
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    max_kills_per_config: int = 2
    cache_corruption_rate: float = 0.0
    malformed_item_rate: float = 0.0
    late_item_rate: float = 0.0

    def __post_init__(self):
        for name in (
            "worker_kill_rate",
            "cache_corruption_rate",
            "malformed_item_rate",
            "late_item_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_kills_per_config < 0:
            raise ValueError("max_kills_per_config must be >= 0")

    # ------------------------------------------------------------------
    # worker faults
    # ------------------------------------------------------------------
    def should_kill_worker(self, digest: str, attempt: int) -> bool:
        """Whether the ``attempt``-th try at ``digest`` dies mid-seed."""
        if attempt >= self.max_kills_per_config:
            return False
        return (
            _unit_draw(self.seed, "kill", digest, attempt)
            < self.worker_kill_rate
        )

    def kill_worker(self, digest: str, attempt: int, subprocess: bool) -> None:
        """Apply a worker-death decision (no-op if the draw says live).

        In a real worker process the death is an ``os._exit`` — no
        cleanup, no exception propagation, exactly what a OOM-kill or
        segfault looks like to the parent.  Inline it raises
        :class:`WorkerKilled` so the retry path is exercised without
        taking the caller's process down.
        """
        if not self.should_kill_worker(digest, attempt):
            return
        if subprocess:
            os._exit(CHAOS_EXIT_CODE)
        raise WorkerKilled(
            f"chaos killed attempt {attempt} of config {digest[:12]}"
        )

    # ------------------------------------------------------------------
    # cache faults
    # ------------------------------------------------------------------
    def corruption_mode(self, digest: str) -> Optional[str]:
        """Corruption decision for one cache entry: mode name or None."""
        if (
            _unit_draw(self.seed, "corrupt", digest)
            >= self.cache_corruption_rate
        ):
            return None
        modes = ("truncate", "garbage", "flip")
        pick = _unit_draw(self.seed, "corrupt-mode", digest)
        return modes[int(pick * len(modes)) % len(modes)]

    def corrupt_entry(self, path: Path, digest: str) -> Optional[str]:
        """Corrupt the on-disk entry at ``path`` per the digest's draw.

        Returns the applied mode, or None when the draw (or a missing
        file) spares the entry.  ``truncate`` models a torn write,
        ``garbage`` a foreign file under the right name, ``flip`` silent
        bit rot in the payload.
        """
        mode = self.corruption_mode(digest)
        if mode is None or not path.exists():
            return None
        if mode == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 3)])
        elif mode == "garbage":
            path.write_bytes(b"chaos: this is not an npz archive")
        else:  # flip: xor a byte deep in the payload
            data = bytearray(path.read_bytes())
            if data:
                pos = int(
                    _unit_draw(self.seed, "flip-pos", digest) * len(data)
                ) % len(data)
                data[pos] ^= 0xFF
                path.write_bytes(bytes(data))
        return mode

    def corrupt_before_read(
        self, cache: "TraceCache", config: "CampaignConfig"
    ) -> Optional[str]:
        """Corrupt ``config``'s cache entry ahead of a read, per draw."""
        from repro.runtime.hashing import config_digest

        if self.cache_corruption_rate <= 0.0:
            return None
        digest = config_digest(config)
        return self.corrupt_entry(cache.path_for(config), digest)

    # ------------------------------------------------------------------
    # live-stream faults
    # ------------------------------------------------------------------
    def mangle_stream(self, items):
        """Yield a stream with junk items injected ahead of real ones.

        Real items pass through untouched (so a tolerant consumer's
        estimator state is unaffected); injected junk is either a
        malformed item (``None`` payload on a real channel) or — per
        ``late_item_rate`` — the same junk backdated an hour behind the
        current stream time, exercising the late-arrival path as well as
        the malformed one.
        """
        from repro.live.analytics import CHANNELS

        for index, (time, channel, payload) in enumerate(items):
            if _unit_draw(self.seed, "mangle", index) < self.malformed_item_rate:
                junk_channel = CHANNELS[
                    int(_unit_draw(self.seed, "mangle-ch", index) * len(CHANNELS))
                    % len(CHANNELS)
                ]
                junk_time = time
                if _unit_draw(self.seed, "mangle-late", index) < self.late_item_rate:
                    junk_time = max(0.0, time - HOUR)
                yield junk_time, junk_channel, None
            yield time, channel, payload


__all__ = [
    "CHAOS_EXIT_CODE",
    "ChaosError",
    "ChaosPolicy",
    "WorkerKilled",
]
