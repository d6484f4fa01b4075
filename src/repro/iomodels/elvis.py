"""The *Elvis* I/O model: local sidecores polling virtio rings + ELI.

State of the art for interposable virtual I/O (Har'El et al., ATC'13).
Guests post virtio requests to shared-memory rings *without kicking* — a
dedicated host sidecore polls the rings and services requests, delivering
completions by exitless IPI.  The physical NIC, however, is still driven in
the standard interrupt fashion, so each request-response costs 2 host
interrupts on top of the 2 guest interrupts (Table 3) — the overhead vRIO
removes by polling the NICs at the IOhost.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..hw import Core, Nic
from ..interpose import InterposerChain
from ..net.frame import STANDARD_MTU
from ..sim import Environment
from .base import IoEventStats
from .costs import CostModel, DEFAULT_COSTS
from .hostpath import HostModel, register_host_model

__all__ = ["ElvisModel"]


class ElvisModel(HostModel):
    """Elvis: per-VMhost sidecores, polled rings, interrupt-driven NIC."""

    name = "elvis"
    placement = "sidecores"
    notify = "ipi"
    nic_mode = "interrupt"
    kick = "none"
    prefix = "elvis"
    backend_tx = "sc"
    span = "sidecore_service"
    service_tag = "backend"
    blk_tag = "blk_backend"

    def __init__(self, env: Environment, nic: Nic, sidecores: List[Core],
                 costs: CostModel = DEFAULT_COSTS,
                 stats: Optional[IoEventStats] = None,
                 interposers: Optional[InterposerChain] = None,
                 mtu: int = STANDARD_MTU,
                 tracer: Optional[Any] = None) -> None:
        if not sidecores:
            raise ValueError("Elvis requires at least one sidecore")
        super().__init__(env, nic, sidecores, costs, stats, interposers,
                         mtu, tracer)
        self.sidecores = sidecores
        c = self.costs
        self._service = (c.backend_per_msg_cycles, c.sidecore_per_byte_cycles)
        # The sidecore marks the used descriptor, then IPIs the guest.
        self._blk_done = (c.ring_op_cycles, "blk_complete")


register_host_model(
    ElvisModel, ranks=(30, 20, 10),
    description=("local sidecores polling virtio rings + ELI exitless "
                 "completions (state of the art, Har'El et al. ATC'13)"))
