"""Fig. 10: checkpoint and failure-rate requirements at 100k-GPU scale."""

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.core.checkpoint import ettr_checkpoint_grid, required_checkpoint_interval
from repro.sim.timeunits import MINUTE

#: The two clusters' measured failure rates (per 1000 node-days).
RSC1_RF = 6.50e-3
RSC2_RF = 2.34e-3


@dataclass(frozen=True)
class CheckpointSweep:
    """E[ETTR] surface plus required-interval solutions."""

    n_gpus: int
    failure_rates: Tuple[float, ...]
    intervals: Tuple[float, ...]
    grid: Dict[Tuple[float, float], float]
    required: Dict[Tuple[float, float], float]  # (rf, target) -> dt seconds

    def render(self) -> str:
        headers = ["rf (/1k nd)"] + [
            f"dt={dt / 60:.0f}m" for dt in self.intervals
        ]
        rows = []
        for rf in self.failure_rates:
            rows.append(
                [f"{rf * 1000:.2f}"]
                + [f"{self.grid[(rf, dt)]:.3f}" for dt in self.intervals]
            )
        table = render_table(
            headers,
            rows,
            title=f"Fig. 10 — E[ETTR] at {self.n_gpus:,} GPUs",
        )
        def label(dt: float) -> str:
            if np.isnan(dt):
                # Unreachable even with instant checkpoints: the restart
                # overhead alone exceeds the failure budget.
                return "unreachable (cut restart overhead)"
            if np.isinf(dt):
                return "any"
            return f"{dt / MINUTE:.1f} min"

        reqs = "; ".join(
            f"rf={rf * 1000:.2f}/1k nd, ETTR {target}: dt={label(dt)}"
            for (rf, target), dt in sorted(self.required.items())
        )
        return table + "\nrequired intervals: " + reqs


def checkpoint_sweep(
    n_gpus: int = 100_000,
    failure_rates: Sequence[float] = (RSC1_RF, RSC2_RF),
    intervals_minutes: Sequence[float] = (2, 5, 7, 10, 21, 30, 60),
    targets: Sequence[float] = (0.5, 0.9),
    restart_overhead: float = 5 * MINUTE,
) -> CheckpointSweep:
    """Compute Fig. 10's surface and the paper's callout solutions."""
    intervals = tuple(float(m) * MINUTE for m in intervals_minutes)
    rates = tuple(float(r) for r in failure_rates)
    grid = ettr_checkpoint_grid(
        rates, intervals, n_gpus=n_gpus, restart_overhead=restart_overhead
    )
    required: Dict[Tuple[float, float], float] = {}
    n_nodes = max(1, n_gpus // 8)
    for rf in rates:
        for target in targets:
            try:
                dt = required_checkpoint_interval(
                    target,
                    n_nodes=n_nodes,
                    failure_rate_per_node_day=rf,
                    restart_overhead=restart_overhead,
                )
            except ValueError:
                dt = float("nan")  # unreachable even at instant checkpoints
            required[(rf, target)] = dt
    return CheckpointSweep(
        n_gpus=n_gpus,
        failure_rates=rates,
        intervals=intervals,
        grid=grid,
        required=required,
    )
