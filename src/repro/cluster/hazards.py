"""Per-component failure hazard model.

Failure behaviour in the paper has three layers, all represented here:

1. A **baseline** per-component Poisson rate whose sum is the cluster's
   failure rate ``r_f`` (6.50 per 1000 node-days on RSC-1, 2.34 on RSC-2).
2. **Episodic regimes** — time-bounded multipliers reproducing Fig. 5's
   dynamics (the GSP-timeout driver regression, the filesystem-mount wave,
   the summer-2024 IB-link spike on a handful of nodes).
3. **Lemon nodes** — a small set of nodes with persistently elevated hazard
   in one root-cause component (Section IV-A, Table II).

Rates are expressed in failures per node-day; the failure injector converts
to per-second when scheduling.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.cluster.components import ComponentType

#: Default probability that a failure of each component class is transient
#: (clears after reset) rather than permanent (needs part repair/replacement).
DEFAULT_TRANSIENT_PROBABILITY: Dict[ComponentType, float] = {
    ComponentType.GPU: 0.70,
    ComponentType.GPU_MEMORY: 0.55,
    ComponentType.NVLINK: 0.60,
    ComponentType.IB_LINK: 0.75,
    ComponentType.PCIE: 0.40,
    ComponentType.FILESYSTEM_MOUNT: 0.90,
    ComponentType.HOST_MEMORY: 0.50,
    ComponentType.ETH_LINK: 0.80,
    ComponentType.CPU: 0.30,
    ComponentType.PSU: 0.20,
    ComponentType.NIC: 0.50,
    ComponentType.SYSTEM_SERVICES: 0.95,
    ComponentType.BIOS: 0.30,
    ComponentType.EUD: 0.40,
    ComponentType.OPTICS: 0.50,
}


@dataclass(frozen=True)
class ComponentHazard:
    """Baseline hazard for one component domain.

    Attributes:
        rate_per_kiloday: Failures per 1000 node-days from this domain.
        transient_probability: Chance a given failure is transient.
    """

    rate_per_kiloday: float
    transient_probability: float

    def __post_init__(self):
        if self.rate_per_kiloday < 0:
            raise ValueError("rate must be non-negative")
        if not 0 <= self.transient_probability <= 1:
            raise ValueError("transient_probability must be in [0, 1]")

    @property
    def rate_per_day(self) -> float:
        return self.rate_per_kiloday / 1000.0


@dataclass(frozen=True)
class HazardRegime:
    """A time-bounded hazard multiplier, optionally scoped to node subset.

    ``multiplier`` applies to ``component`` between ``start`` and ``end``
    (simulation seconds).  ``node_ids`` of ``None`` means fleet-wide.
    """

    name: str
    component: ComponentType
    multiplier: float
    start: float
    end: float
    node_ids: Optional[FrozenSet[int]] = None

    def __post_init__(self):
        if self.multiplier < 0:
            raise ValueError("multiplier must be non-negative")
        if self.end <= self.start:
            raise ValueError(f"regime {self.name}: end must exceed start")

    def applies(self, node_id: int, component: ComponentType, t: float) -> bool:
        if component is not self.component:
            return False
        if not self.start <= t < self.end:
            return False
        return self.node_ids is None or node_id in self.node_ids


@dataclass(frozen=True)
class LemonSpec:
    """A persistently faulty node: its root-cause component and multiplier."""

    node_id: int
    component: ComponentType
    multiplier: float

    def __post_init__(self):
        if self.multiplier < 1:
            raise ValueError("a lemon multiplier below 1 is not a lemon")


class HazardModel:
    """Combines baseline, regime, and lemon hazards into query-able rates."""

    def __init__(
        self,
        base: Dict[ComponentType, ComponentHazard],
        regimes: Sequence[HazardRegime] = (),
        lemons: Sequence[LemonSpec] = (),
    ):
        if not base:
            raise ValueError("hazard model needs at least one component hazard")
        self.base = dict(base)
        self.regimes = list(regimes)
        self._lemons: Dict[int, LemonSpec] = {}
        for lemon in lemons:
            if lemon.node_id in self._lemons:
                raise ValueError(f"duplicate lemon spec for node {lemon.node_id}")
            self._lemons[lemon.node_id] = lemon

    @property
    def lemons(self) -> Dict[int, LemonSpec]:
        return dict(self._lemons)

    def is_lemon(self, node_id: int) -> bool:
        return node_id in self._lemons

    def component_rate(self, node_id: int, component: ComponentType, t: float) -> float:
        """Hazard rate (failures per node-day) of one component at time t."""
        hazard = self.base.get(component)
        if hazard is None:
            return 0.0
        rate = hazard.rate_per_day
        for regime in self.regimes:
            if regime.applies(node_id, component, t):
                rate *= regime.multiplier
        lemon = self._lemons.get(node_id)
        if lemon is not None and lemon.component is component:
            rate *= lemon.multiplier
        return rate

    def total_rate(self, node_id: int, t: float) -> float:
        """Total hazard rate (failures per node-day) of a node at time t.

        Added left to right, as ``total_rates`` adds its columns: the
        built-in ``sum`` compensates float rounding on Python 3.12+, and
        the two paths must agree bit for bit on every version.
        """
        total = 0.0
        for component in self.base:
            total += self.component_rate(node_id, component, t)
        return total

    def total_rates(self, node_ids: Sequence[int], t: float) -> np.ndarray:
        """Vectorized :meth:`total_rate` over many nodes at one instant.

        Bit-identical to calling ``total_rate`` per node (the failure
        injector's determinism depends on that).  With no active regime
        and no lemons every node shares the baseline sum.  Otherwise a
        nodes x components array takes each active regime's multiplier,
        then the lemon multipliers, in ``component_rate``'s order, and
        its columns are added left to right.
        """
        active = [r for r in self.regimes if r.start <= t < r.end]
        if not self._lemons and not active:
            return np.full(len(node_ids), self.baseline_total_rate())
        components = list(self.base)
        column = {component: i for i, component in enumerate(components)}
        ids = np.asarray(node_ids, dtype=np.int64)
        rates = np.empty((len(ids), len(components)))
        rates[:] = [self.base[c].rate_per_day for c in components]
        for regime in active:
            col = column.get(regime.component)
            if col is None:
                continue
            if regime.node_ids is None:
                rates[:, col] *= regime.multiplier
            else:
                rows = np.isin(ids, np.fromiter(regime.node_ids, dtype=np.int64))
                rates[rows, col] *= regime.multiplier
        lemons = self._lemons
        for row, node_id in enumerate(node_ids):
            lemon = lemons.get(node_id)
            if lemon is not None and lemon.component in column:
                rates[row, column[lemon.component]] *= lemon.multiplier
        total = np.zeros(len(ids))
        for col in range(len(components)):
            total += rates[:, col]
        return total

    def baseline_total_rate(self) -> float:
        """Fleet baseline ``r_f`` in failures per node-day (no regimes/lemons)."""
        total = 0.0
        for hazard in self.base.values():
            total += hazard.rate_per_day
        return total

    def sample_component(
        self, node_id: int, t: float, rng: np.random.Generator
    ) -> ComponentType:
        """Draw the failing component proportionally to current rates."""
        comps = list(self.base)
        rates = np.array([self.component_rate(node_id, c, t) for c in comps])
        total = rates.sum()
        if total <= 0:
            raise ValueError(f"node {node_id} has zero total hazard at t={t}")
        return comps[int(rng.choice(len(comps), p=rates / total))]

    def transient_probability(self, component: ComponentType) -> float:
        hazard = self.base.get(component)
        if hazard is None:
            return DEFAULT_TRANSIENT_PROBABILITY.get(component, 0.5)
        return hazard.transient_probability

    def regime_boundaries(self) -> List[float]:
        """Sorted distinct times at which any regime starts or ends."""
        times = set()
        for regime in self.regimes:
            times.add(regime.start)
            times.add(regime.end)
        return sorted(times)

    @classmethod
    def from_rates(
        cls,
        rates_per_kiloday: Dict[ComponentType, float],
        regimes: Sequence[HazardRegime] = (),
        lemons: Sequence[LemonSpec] = (),
    ) -> "HazardModel":
        """Build a model from a flat {component: failures/1000 node-days} map."""
        base = {
            comp: ComponentHazard(
                rate_per_kiloday=rate,
                transient_probability=DEFAULT_TRANSIENT_PROBABILITY.get(comp, 0.5),
            )
            for comp, rate in rates_per_kiloday.items()
        }
        return cls(base, regimes=regimes, lemons=lemons)


#: RSC-1-like attribution mix: sums to ~6.50 failures per 1000 node-days,
#: dominated by IB links, filesystem mounts, GPU memory, and PCIe (Fig. 4a).
RSC1_COMPONENT_RATES: Dict[ComponentType, float] = {
    ComponentType.IB_LINK: 1.60,
    ComponentType.FILESYSTEM_MOUNT: 1.00,
    ComponentType.GPU_MEMORY: 0.90,
    ComponentType.PCIE: 0.70,
    ComponentType.GPU: 0.70,
    ComponentType.NVLINK: 0.30,
    ComponentType.HOST_MEMORY: 0.15,
    ComponentType.SYSTEM_SERVICES: 0.40,
    ComponentType.ETH_LINK: 0.10,
    ComponentType.NIC: 0.10,
    ComponentType.CPU: 0.05,
    ComponentType.PSU: 0.05,
    ComponentType.BIOS: 0.05,
    ComponentType.EUD: 0.20,
    ComponentType.OPTICS: 0.20,
}

#: RSC-2-like mix: ~2.34 per 1000 node-days, with filesystem mounts taking a
#: relatively larger share and GPUs taxed less heavily (Fig. 4b; the paper
#: notes RSC-1 GPUs are swapped at ~3x the RSC-2 rate).
RSC2_COMPONENT_RATES: Dict[ComponentType, float] = {
    ComponentType.IB_LINK: 0.45,
    ComponentType.FILESYSTEM_MOUNT: 0.55,
    ComponentType.GPU_MEMORY: 0.30,
    ComponentType.PCIE: 0.22,
    ComponentType.GPU: 0.20,
    ComponentType.NVLINK: 0.08,
    ComponentType.HOST_MEMORY: 0.06,
    ComponentType.SYSTEM_SERVICES: 0.18,
    ComponentType.ETH_LINK: 0.05,
    ComponentType.NIC: 0.05,
    ComponentType.CPU: 0.02,
    ComponentType.PSU: 0.02,
    ComponentType.BIOS: 0.02,
    ComponentType.EUD: 0.07,
    ComponentType.OPTICS: 0.07,
}
