"""Fig. 4: attributed hardware failure rates per GPU-hour by component.

Runs the observable attribution pipeline (health-check windows around
failing jobs) and normalizes component counts by the trace's total GPU
runtime.  Rates are reported per *million* GPU-hours for readability — the
paper's per-GPU-hour axis carries a 1e-6-ish scale for the same reason.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.report import render_bars
from repro.core.attribution import AttributionPolicy, FailureAttributor
from repro.workload.trace import Trace

PER_MILLION_GPU_HOURS = 1_000_000.0


@dataclass(frozen=True)
class FailureRateTable:
    """Component -> failures per million GPU-hours."""

    cluster_name: str
    rates: Dict[str, float]
    co_occurrence_pcie_xid79: float
    multi_attributed_fraction: float

    def render(self) -> str:
        chart = render_bars(
            dict(self.rates),
            title=(
                f"Fig. 4 — attributed failures per 1M GPU-hours "
                f"({self.cluster_name})"
            ),
        )
        footer = (
            f"\nPCIe failures co-occurring with XID-79 checks: "
            f"{self.co_occurrence_pcie_xid79:.0%}; "
            f"multi-attributed failures: {self.multi_attributed_fraction:.0%}"
        )
        return chart + footer


def attributed_failure_rates(
    trace: Trace,
    policy: Optional[AttributionPolicy] = None,
) -> FailureRateTable:
    """Compute Fig. 4 from the trace's observables."""
    attributor = FailureAttributor(trace, policy)
    rates = attributor.failure_rate_by_component(
        per_gpu_hours=PER_MILLION_GPU_HOURS
    )
    attributions = [a for a in attributor.attribute_all() if a.attributed]
    multi = (
        sum(1 for a in attributions if a.multi_attributed) / len(attributions)
        if attributions
        else 0.0
    )
    return FailureRateTable(
        cluster_name=trace.cluster_name,
        rates=rates,
        co_occurrence_pcie_xid79=attributor.check_co_occurrence_fraction(
            "pcie", "xid79_fell_off_bus"
        ),
        multi_attributed_fraction=multi,
    )
