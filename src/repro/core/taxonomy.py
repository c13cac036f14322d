"""Table I: the failure taxonomy.

"There may be many potential root causes for any given symptom, and the
only way to limit the hypothesis space is to rule out unlikely causes"
(Section II-E).  Each taxonomy entry maps an observed *symptom* to the
failure *domains* it may implicate (user program, system software, hardware
infrastructure) and the likely causes the paper lists.  :func:`diagnose`
implements the differential-diagnosis step: given a symptom and the set of
domains already ruled out, it returns the remaining hypotheses.
"""

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cluster.components import ComponentType


class FailureDomain(enum.Enum):
    """Where a failure can originate (Table I's three columns)."""

    USER_PROGRAM = "user_program"
    SYSTEM_SOFTWARE = "system_software"
    HARDWARE_INFRA = "hardware_infra"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class FailureSymptom(enum.Enum):
    """Observable symptoms (Table I's rows)."""

    OOM = "oom"
    GPU_UNAVAILABLE = "gpu_unavailable"
    GPU_MEMORY_ERRORS = "gpu_memory_errors"
    GPU_DRIVER_FIRMWARE_ERROR = "gpu_driver_firmware_error"
    GPU_NVLINK_ERROR = "gpu_nvlink_error"
    INFINIBAND_LINK = "infiniband_link"
    FILESYSTEM_MOUNTS = "filesystem_mounts"
    MAIN_MEMORY_ERRORS = "main_memory_errors"
    ETHLINK_ERRORS = "ethlink_errors"
    PCIE_ERRORS = "pcie_errors"
    NCCL_TIMEOUT = "nccl_timeout"
    SYSTEM_SERVICES = "system_services"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TaxonomyEntry:
    """One row of Table I."""

    symptom: FailureSymptom
    domains: FrozenSet[FailureDomain]
    likely_causes: Tuple[str, ...]
    component: Optional[ComponentType] = None


def _entry(symptom, domains, causes, component=None) -> TaxonomyEntry:
    return TaxonomyEntry(
        symptom=symptom,
        domains=frozenset(domains),
        likely_causes=tuple(causes),
        component=component,
    )


_U = FailureDomain.USER_PROGRAM
_S = FailureDomain.SYSTEM_SOFTWARE
_H = FailureDomain.HARDWARE_INFRA

#: Table I, verbatim rows.
FAILURE_TAXONOMY: Dict[FailureSymptom, TaxonomyEntry] = {
    e.symptom: e
    for e in [
        _entry(FailureSymptom.OOM, {_U}, ["User Bug"]),
        _entry(
            FailureSymptom.GPU_UNAVAILABLE,
            {_S, _H},
            ["PCIe error", "Driver/BIOS", "thermals"],
            ComponentType.GPU,
        ),
        _entry(
            FailureSymptom.GPU_MEMORY_ERRORS,
            {_H},
            ["Thermal Noise", "Cosmic Rays", "HBM Defect or Wear"],
            ComponentType.GPU_MEMORY,
        ),
        _entry(
            FailureSymptom.GPU_DRIVER_FIRMWARE_ERROR,
            {_S},
            ["Outdated Software", "High Load"],
            ComponentType.GPU,
        ),
        _entry(
            FailureSymptom.GPU_NVLINK_ERROR,
            {_H},
            ["Electro/Material Failure", "Switch"],
            ComponentType.NVLINK,
        ),
        _entry(
            FailureSymptom.INFINIBAND_LINK,
            {_H},
            ["Electro/Material Failure", "Switch"],
            ComponentType.IB_LINK,
        ),
        _entry(
            FailureSymptom.FILESYSTEM_MOUNTS,
            {_S},
            ["Failed Frontend Network", "Drivers in D State", "Storage Backend"],
            ComponentType.FILESYSTEM_MOUNT,
        ),
        _entry(
            FailureSymptom.MAIN_MEMORY_ERRORS,
            {_H},
            ["Circuit Wear", "Thermal Noise", "Cosmic Rays"],
            ComponentType.HOST_MEMORY,
        ),
        _entry(
            FailureSymptom.ETHLINK_ERRORS,
            {_H},
            ["Electro/Material Failure", "Switch"],
            ComponentType.ETH_LINK,
        ),
        _entry(
            FailureSymptom.PCIE_ERRORS,
            {_H},
            ["GPU Failure", "Poor Electrical Contacts"],
            ComponentType.PCIE,
        ),
        _entry(
            FailureSymptom.NCCL_TIMEOUT,
            {_U, _S, _H},
            ["Userspace Crash", "Deadlock", "Failed HW"],
        ),
        _entry(
            FailureSymptom.SYSTEM_SERVICES,
            {_U, _S, _H},
            ["Userspace Interference", "Software Bugs", "Network Partition"],
            ComponentType.SYSTEM_SERVICES,
        ),
    ]
}

#: Maps simulator component domains back to their taxonomy symptom.
SYMPTOM_BY_COMPONENT: Dict[ComponentType, FailureSymptom] = {
    entry.component: symptom
    for symptom, entry in FAILURE_TAXONOMY.items()
    if entry.component is not None
}


def diagnose(
    symptom: FailureSymptom,
    ruled_out: Iterable[FailureDomain] = (),
) -> List[FailureDomain]:
    """Differential diagnosis: domains still suspect after exclusions.

    >>> diagnose(FailureSymptom.NCCL_TIMEOUT,
    ...          ruled_out=[FailureDomain.USER_PROGRAM])
    [<FailureDomain.SYSTEM_SOFTWARE: 'system_software'>, \
<FailureDomain.HARDWARE_INFRA: 'hardware_infra'>]
    """
    entry = FAILURE_TAXONOMY[symptom]
    ruled = set(ruled_out)
    remaining = [d for d in FailureDomain if d in entry.domains and d not in ruled]
    return remaining
