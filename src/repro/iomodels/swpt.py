"""The *swpt* I/O model: software-only passthrough (Kedia/Bansal).

Modeled after software techniques for direct device assignment without
hardware support (arXiv 1508.06367): the device is mapped straight into
the guest, but the platform lacks interrupt-remapping/posted-interrupt
hardware, so a dedicated *host polling thread* per VM watches the
device's completion state and injects interrupts into the guest through
the classic VMM path.  The data path itself (submissions, doorbells) is
direct and exitless — what costs is every completion: polling-core
cycles to notice and classify it, then a full injection, which the guest
acknowledges with a trapped EOI.

Unlike Elvis there is no sidecore *sharing*: each VM gets its own
polling core, so the design burns host cores linearly with VM count but
never queues one VM's completions behind another's.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..hw import Core, Nic
from ..net.frame import STANDARD_MTU
from ..sim import Environment
from .base import IoEventStats
from .costs import CostModel, DEFAULT_COSTS
from .hostpath import HostModel, register_host_model

__all__ = ["SwptModel"]


class SwptModel(HostModel):
    """Software-only passthrough: direct mapping, per-VM polling thread."""

    name = "swpt"
    placement = "poll"
    notify = "injection"
    prefix = "swpt"
    span = "poll_service"

    def __init__(self, env: Environment, nic: Nic, poll_cores: List[Core],
                 costs: CostModel = DEFAULT_COSTS,
                 stats: Optional[IoEventStats] = None,
                 mtu: int = STANDARD_MTU,
                 tracer: Optional[Any] = None) -> None:
        super().__init__(env, nic, list(poll_cores), costs, stats, None,
                         mtu, tracer)
        c = self.costs
        # Every completion: the polling thread reads its status, then
        # injects it.
        self._rx_done = self._tx_done = self._blk_done = (
            c.swpt_poll_per_event_cycles + c.injection_cycles, "poll")


register_host_model(
    SwptModel, ranks=(80, 80, 60),
    description=("software-only passthrough: direct mapping, per-VM host "
                 "polling thread injects completions (arXiv 1508.06367)"))
