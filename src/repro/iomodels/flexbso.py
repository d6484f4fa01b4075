"""The *flexbso* I/O model: block-storage offload to a per-host engine.

Modeled after FlexBSO-style flexible block-storage offload
(arXiv 2409.02381): guests post plain virtio requests, but the backend
runs on a dedicated *offload engine* — a SmartNIC service core with its
own run queue and service-time profile — instead of host software.  The
doorbell is a posted MMIO write into the engine (no exit), the engine
DMAs request data through its own memory and drives the medium, and the
completion is written back NIC-side with an exitless interrupt into the
guest.  The §2 cost model charges the engine for its per-request
processing and per-byte DMA staging.

Because every request crosses the engine, interposition works — the same
property Elvis buys with host sidecores, here at SmartNIC prices.
"""

from __future__ import annotations

from typing import Any, Optional

from ..hw import Core, Nic
from ..interpose import InterposerChain
from ..net.frame import STANDARD_MTU
from ..sim import Environment
from .base import IoEventStats
from .costs import CostModel, DEFAULT_COSTS
from .hostpath import HostModel, register_host_model

__all__ = ["FlexbsoModel"]


class FlexbsoModel(HostModel):
    """FlexBSO: per-host offload engine, NIC-side completions."""

    name = "flexbso"
    placement = "engine"
    kick = "doorbell"
    prefix = "flexbso"
    backend_tx = "eng"
    span = "engine_service"
    service_tag = "engine"
    blk_tag = "blk_engine"

    def __init__(self, env: Environment, nic: Nic, engine: Core,
                 costs: CostModel = DEFAULT_COSTS,
                 stats: Optional[IoEventStats] = None,
                 interposers: Optional[InterposerChain] = None,
                 mtu: int = STANDARD_MTU,
                 tracer: Optional[Any] = None) -> None:
        super().__init__(env, nic, [engine], costs, stats, interposers,
                         mtu, tracer)
        self.engine = engine
        c = self.costs
        self._doorbell_ns = c.flexbso_doorbell_latency_ns
        self._service = self._blk_service = (
            c.flexbso_engine_per_req_cycles, c.flexbso_dma_per_byte_cycles)
        # The engine writes the used entry back NIC-side, then posts the
        # guest's interrupt.
        self._tx_done = (c.ring_op_cycles, "tx_complete")
        self._blk_done = (c.ring_op_cycles, "blk_complete")


register_host_model(
    FlexbsoModel, ranks=(70, 70, 50),
    description=("block offload to a per-host SmartNIC engine core with "
                 "NIC-side exitless completions (arXiv 2409.02381)"))
