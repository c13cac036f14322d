"""NVIDIA XID error catalogue (subset relevant to the paper).

XIDs are the GPU driver's error codes; the paper calls out memory errors,
GPU-falling-off-the-bus (XID 79), and GSP timeouts (XID 119, the driver
regression of Fig. 5) as the dominant GPU categories.  Each entry maps the
code to the component domain it implicates and whether it usually indicates
a user-level or infrastructure-level fault.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.components import ComponentType


@dataclass(frozen=True)
class XidError:
    """One XID code with its mapping into our failure taxonomy."""

    code: int
    name: str
    component: ComponentType
    user_suspect: bool  # can a user program plausibly trigger this?
    description: str


XID_CATALOG: Dict[int, XidError] = {
    xid.code: xid
    for xid in [
        XidError(
            13,
            "graphics_engine_exception",
            ComponentType.GPU,
            True,
            "Graphics engine exception; frequently a user kernel fault.",
        ),
        XidError(
            31,
            "gpu_memory_page_fault",
            ComponentType.GPU,
            True,
            "MMU page fault; almost always an application bug.",
        ),
        XidError(
            48,
            "double_bit_ecc",
            ComponentType.GPU_MEMORY,
            False,
            "Uncorrectable double-bit ECC error in HBM.",
        ),
        XidError(
            63,
            "row_remap_pending",
            ComponentType.GPU_MEMORY,
            False,
            "ECC page retirement / row remap recording event.",
        ),
        XidError(
            64,
            "row_remap_failure",
            ComponentType.GPU_MEMORY,
            False,
            "Row remap failed; HBM defect or wear requiring a GPU swap.",
        ),
        XidError(
            74,
            "nvlink_error",
            ComponentType.NVLINK,
            False,
            "NVLink uncorrectable error; electro/material failure or switch.",
        ),
        XidError(
            79,
            "gpu_fell_off_bus",
            ComponentType.PCIE,
            False,
            "GPU no longer visible over PCIe ('falling off the bus').",
        ),
        XidError(
            94,
            "contained_ecc",
            ComponentType.GPU_MEMORY,
            False,
            "Contained ECC error; workload on this GPU is killed.",
        ),
        XidError(
            95,
            "uncontained_ecc",
            ComponentType.GPU_MEMORY,
            False,
            "Uncontained ECC error; node requires a drain and reset.",
        ),
        XidError(
            119,
            "gsp_timeout",
            ComponentType.GPU,
            False,
            "GSP RPC timeout; the driver-regression failure mode of Fig. 5.",
        ),
    ]
}


# The XIDs a component failure surfaces, used by the failure injector.
COMPONENT_PRIMARY_XID: Dict[ComponentType, Optional[int]] = {
    ComponentType.GPU: 119,
    ComponentType.GPU_MEMORY: 48,
    ComponentType.NVLINK: 74,
    ComponentType.PCIE: 79,
}
