"""The *optimum* I/O model: SRIOV with exitless interrupts (ELI).

Each VM is assigned its own NIC virtual function; the guest talks to the
device directly and receives its interrupts without host involvement
(ELI), so a request-response costs exactly two guest interrupts and
nothing else (Table 3).  The price: **no interposition is possible** —
attaching an interposer chain or a host-managed block device raises,
because that is precisely what the paper says SRIOV cannot do.
"""

from __future__ import annotations

from typing import Any, Optional

from ..net.frame import STANDARD_MTU
from ..sim import Environment
from .base import IoEventStats
from .costs import CostModel, DEFAULT_COSTS
from .hostpath import HostModel, register_host_model

__all__ = ["OptimumModel"]


class OptimumModel(HostModel):
    """SRIOV+ELI: direct device assignment, bare-metal-like performance."""

    name = "optimum"
    prefix = "opt"
    function_prefix = "vf"

    def __init__(self, env: Environment, costs: CostModel = DEFAULT_COSTS,
                 stats: Optional[IoEventStats] = None,
                 mtu: int = STANDARD_MTU,
                 tracer: Optional[Any] = None) -> None:
        super().__init__(env, None, [], costs, stats, None, mtu, tracer)

    def attach_block_device(self, vm: Any, device: Any) -> None:
        raise NotImplementedError(
            "SRIOV cannot expose a host-managed block device "
            "(\"there is no such thing as an SRIOV ramdisk\", paper §5)")


register_host_model(
    OptimumModel, ranks=(10, 10, 100),
    block=False, topologies=("simple",),
    description=("SRIOV+ELI direct assignment: bare-metal performance, "
                 "no interposition, no host-managed block devices"))
