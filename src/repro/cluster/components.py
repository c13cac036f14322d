"""Server component model.

The paper's failure attribution is component-granular: GPUs (with XID
subcategories), Infiniband HCAs/links, PCIe, host DIMMs, filesystem mounts,
front-end Ethernet, PSU, CPUs, and host system services.  We enumerate those
domains here; the per-component failure *rates* live in
:mod:`repro.cluster.hazards` so that profiles (RSC-1-like vs RSC-2-like)
stay declarative.
"""

import enum
from typing import Dict


class ComponentType(enum.Enum):
    """Failure domains tracked by health checks (Fig. 4 categories)."""

    GPU = "gpu"
    GPU_MEMORY = "gpu_memory"  # HBM: ECC errors, row-remap failures
    NVLINK = "nvlink"
    IB_LINK = "ib_link"
    PCIE = "pcie"
    FILESYSTEM_MOUNT = "filesystem_mount"
    HOST_MEMORY = "host_memory"  # DIMMs
    ETH_LINK = "eth_link"  # front-end network
    CPU = "cpu"
    PSU = "psu"
    NIC = "nic"
    SYSTEM_SERVICES = "system_services"
    BIOS = "bios"
    EUD = "eud"  # end-user diagnostics failures (Table II category)
    OPTICS = "optics"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class FailureClass(enum.Enum):
    """Cluster-operator binning of hardware errors (Section II-E).

    Transient errors (link flap, corrected-then-fatal ECC burst) clear after
    a reset or short remediation; permanent errors require vendor repair or
    part replacement (e.g. a GPU swap).
    """

    TRANSIENT = "transient"
    PERMANENT = "permanent"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# DGX A100-like node contents: 8 GPUs with HBM and NVLink, one backend HCA
# per GPU rail, dual CPUs, 32 DIMMs, frontend NICs, mounts as a logical
# component, and one services slot for the host software plane.
NODE_COMPONENT_COUNTS: Dict[ComponentType, int] = {
    ComponentType.GPU: 8,
    ComponentType.GPU_MEMORY: 8,
    ComponentType.NVLINK: 8,
    ComponentType.IB_LINK: 8,
    ComponentType.PCIE: 8,
    ComponentType.NIC: 2,
    ComponentType.ETH_LINK: 2,
    ComponentType.CPU: 2,
    ComponentType.HOST_MEMORY: 32,
    ComponentType.PSU: 4,
    ComponentType.FILESYSTEM_MOUNT: 3,  # NFS home, AirStore, ObjectStore
    ComponentType.SYSTEM_SERVICES: 1,
    ComponentType.BIOS: 1,
    ComponentType.EUD: 1,
    ComponentType.OPTICS: 2,
}

GPUS_PER_NODE = 8
