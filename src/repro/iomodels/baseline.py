"""The *baseline* I/O model: KVM/virtio trap-and-emulate paravirtualization.

The state of practice.  Guests kick the host after posting to the ring — a
synchronous exit — and the host's vhost thread, woken by the scheduler,
emulates the device and *injects* completion interrupts, whose EOI writes
trap again.  Per request-response: 3 exits, 2 guest interrupts, 2
injections, 2 host interrupts (Table 3's "sum" of 9).

vhost threads run on the spare core (paper: "Linux uses the core to run
I/O threads and VCPUs as it pleases"); their interrupt-driven wakeups add
scheduling latency, and the exits' cache/TLB pollution dilates guest
application work (``costs.baseline_app_dilation``, see costs.py).
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

__all__ = ["BaselineModel"]


class BaselineModel(HostModel):
    """KVM/virtio with vhost threads on a shared I/O core."""

    name = "baseline"
    placement = "vhost"
    notify = "injection"
    nic_mode = "interrupt"
    kick = "exit"
    prefix = "base"
    function_prefix = "virtio"
    backend_tx = "vhost"
    span = "vhost_service"
    service_tag = "vhost"
    blk_tag = "vhost_blk"

    def __init__(self, env: Environment, nic: Nic, io_core: Core,
                 costs: CostModel = DEFAULT_COSTS,
                 stats: Optional[IoEventStats] = None,
                 interposers: Optional[InterposerChain] = None,
                 mtu: int = STANDARD_MTU,
                 tracer: Optional[Any] = None) -> None:
        super().__init__(env, nic, [io_core], costs, stats, interposers,
                         mtu, tracer)
        self.io_core = io_core
        c = self.costs
        self._app_dilation = c.baseline_app_dilation
        self._sched_delay_ns = c.vhost_sched_delay_ns
        self._service = (c.vhost_wakeup_cycles + c.backend_per_msg_cycles,
                         c.sidecore_per_byte_cycles)
        self._blk_service = (c.vhost_wakeup_cycles, 0)
        # The vhost thread injects every completion into the guest.
        self._rx_done = self._tx_done = self._blk_done = (
            c.injection_cycles, "injection")


register_host_model(
    BaselineModel, ranks=(50, 50, 30),
    description=("KVM/virtio trap-and-emulate with vhost threads "
                 "(state of practice)"))
