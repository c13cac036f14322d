"""Per-rank collective programs.

NCCL matches collectives by *issue order on the communicator*, not by any
tag: the i-th collective issued by rank 0 pairs with the i-th issued by
every other rank.  A program that issues them in different orders on
different ranks deadlocks — the SPMD pitfall Section V describes.
"""

import enum
from dataclasses import dataclass
from typing import List


class CollectiveKind(enum.Enum):
    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    BROADCAST = "broadcast"
    BARRIER = "barrier"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class CollectiveOp:
    """One collective as issued by one rank.

    ``payload_mb`` sizes the operation (drives its duration in the
    execution model); ``label`` is a human-readable hint (e.g. which
    gradient bucket), carried through to diagnosis output.
    """

    kind: CollectiveKind
    payload_mb: float = 64.0
    label: str = ""

    def __post_init__(self):
        if self.payload_mb <= 0:
            raise ValueError("payload_mb must be positive")

    def matches(self, other: "CollectiveOp") -> bool:
        """Would NCCL consider these the same collective?

        Kind and payload must agree; labels are documentation only.
        """
        return self.kind is other.kind and self.payload_mb == other.payload_mb


@dataclass
class RankProgram:
    """The ordered collectives one rank will issue."""

    rank: int
    ops: List[CollectiveOp]
    #: Host-side compute seconds between consecutive collectives.
    compute_gap: float = 0.05

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.compute_gap < 0:
            raise ValueError("compute_gap must be non-negative")

    def __len__(self) -> int:
        return len(self.ops)


def training_step_ops() -> List[CollectiveOp]:
    """One data-parallel training step: four gradient all-reduces of
    128 MB and up, then a barrier.

    Bucket sizes differ (layer groups rarely tie exactly), which also
    makes any reordering observable to NCCL's matching — a swap of two
    byte-identical collectives would be a semantic bug with no hang.
    """
    ops = [
        CollectiveOp(
            CollectiveKind.ALL_REDUCE,
            payload_mb=128.0 * (1.0 + 0.25 * i),
            label=f"grad_bucket_{i}",
        )
        for i in range(4)
    ]
    ops.append(CollectiveOp(CollectiveKind.BARRIER, payload_mb=1.0, label="step_sync"))
    return ops


def training_loop_program(rank: int, n_steps: int = 3) -> RankProgram:
    """A canonical SPMD training loop for one rank."""
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    ops: List[CollectiveOp] = []
    for _step in range(n_steps):
        ops.extend(training_step_ops())
    return RankProgram(rank=rank, ops=ops)


def spmd_program_set(n_ranks: int, n_steps: int = 3) -> List[RankProgram]:
    """Identical programs across ranks — the correct SPMD case."""
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    return [training_loop_program(rank, n_steps) for rank in range(n_ranks)]
