"""Named, independently seeded random streams.

A campaign draws randomness for several logically independent processes:
workload arrivals, job outcomes, hardware failures, scheduler tie-breaking,
and so on.  Deriving one :class:`numpy.random.Generator` per named purpose
from a single root seed gives two properties we rely on throughout:

* **Reproducibility** — the same root seed replays the same campaign.
* **Isolation** — adding draws to one subsystem (say, a new health check)
  does not perturb the sampled sequence of any other subsystem, so
  experiments stay comparable across code changes.
"""

from typing import Dict

import numpy as np


class RngStreams:
    """A factory of named random generators derived from one root seed."""

    def __init__(self, root_seed: int = 0):
        if root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {root_seed}")
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same generator instance, so
        subsystems can re-fetch their stream cheaply.
        """
        if name not in self._streams:
            seq = np.random.SeedSequence(self.root_seed, spawn_key=(_stable_key(name),))
            self._streams[name] = np.random.default_rng(seq)
        return self._streams[name]

    def __repr__(self) -> str:
        return f"RngStreams(root_seed={self.root_seed}, streams={sorted(self._streams)})"


def _stable_key(name: str) -> int:
    """Map a stream name to a stable non-negative integer key.

    Python's builtin ``hash`` is salted per-process for strings, so we use a
    simple FNV-1a hash to keep seeds stable across interpreter runs.
    """
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFF
