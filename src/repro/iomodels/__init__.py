"""The virtual I/O models compared in the paper (§2, Figure 4) and the
registry that catalogs them.

The paper's contenders:

* :class:`BaselineModel` — KVM/virtio trap-and-emulate (state of practice)
* :class:`ElvisModel` — local sidecores polling virtio rings (state of the art)
* :class:`OptimumModel` — SRIOV+ELI, non-interposable bare-metal performance
* :class:`VrioModel` — paravirtual remote I/O (this paper); ``poll=False``
  gives the "vrio w/o poll" variant of Table 3/Figure 5

Post-paper contenders, each one more point in Table 3's space (DESIGN §14):

* :class:`NvmePtModel` — NVMe I/O-queue passthrough (arXiv 2304.05148)
* :class:`FlexbsoModel` — block offload to a per-host engine (arXiv 2409.02381)
* :class:`SwptModel` — software-only passthrough (arXiv 1508.06367)

The six host-side models share one datapath, :class:`HostModel`
(:mod:`.hostpath`), and one block handle, :class:`HostBlockHandle`; each
declares only its back-end placement, completion notification, NIC mode,
kick behaviour and cost terms.  vRIO keeps its own datapath, because its
front end is remote.

Each model module registers itself with :mod:`repro.iomodels.registry` at
import time; everything downstream (testbed builders, experiment model
lists, CLI listings) derives from that catalog.
"""

from .base import (
    ExternalEndpoint,
    IoEventStats,
    NetMessage,
    NetPort,
    message_wire_bytes,
)
from .baseline import BaselineModel
from .costs import DEFAULT_COSTS, CostModel
from .dynamic import DynamicSidecoreAllocator
from .elvis import ElvisModel
from .flexbso import FlexbsoModel
from .hostpath import HostBlockHandle, HostModel
from .nvme_pt import NvmePtModel
from .registry import (
    Capabilities,
    ModelInfo,
    all_models,
    filter_models,
    get_model,
    model_names,
    register_model,
)
from .sriov import OptimumModel
from .swpt import SwptModel
from .vrio import (
    BlockDeviceError,
    VmhostChannel,
    VrioBlockHandle,
    VrioClient,
    VrioModel,
)

__all__ = [
    "IoEventStats", "NetMessage", "NetPort", "ExternalEndpoint",
    "message_wire_bytes",
    "CostModel", "DEFAULT_COSTS",
    "Capabilities", "ModelInfo", "register_model", "get_model",
    "model_names", "filter_models", "all_models",
    "HostModel", "HostBlockHandle",
    "BaselineModel", "ElvisModel", "OptimumModel",
    "DynamicSidecoreAllocator",
    "NvmePtModel", "FlexbsoModel", "SwptModel",
    "VrioModel", "VmhostChannel", "VrioClient", "VrioBlockHandle",
    "BlockDeviceError",
]
