"""The *nvme_pt* I/O model: NVMe virtualization with I/O-queue passthrough.

Modeled after hardware-assisted NVMe virtualization (arXiv 2304.05148):
each VM gets its own NVMe I/O queue pair mapped straight into the guest,
so data-path submissions never exit — the guest rings a *shadow doorbell*
(a store to a shared page the device polls) and completions arrive as
posted interrupts.  Only the admin queue stays trapped: queue creation,
deletion, and aborts each cost a synchronous exit plus host emulation
work.  The network side is plain SRIOV+ELI direct assignment, as in the
optimum — the passthrough philosophy applied to both device classes.

Like SRIOV, the host never touches the data path, so interposition is
impossible; unlike SRIOV, host-managed block devices *do* work, because
the mediation needed to carve per-VM queue pairs out of one device is
exactly what the admin-queue trap path provides.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..guest.vm import Vm
from ..hw.storage import StorageDevice
from ..net.frame import STANDARD_MTU
from ..sim import Counter, Environment, Event
from .base import IoEventStats
from .costs import CostModel, DEFAULT_COSTS
from .hostpath import HostBlockHandle, HostModel, register_host_model

__all__ = ["NvmePtModel"]

# I/O queue-pair creation takes one admin command for the submission
# queue and one for the completion queue — both trapped.
_ADMIN_CMDS_PER_QPAIR = 2


class NvmePtModel(HostModel):
    """NVMe I/O-queue passthrough: exitless data path, trapped admin path."""

    name = "nvme_pt"
    prefix = "nvmept"

    def __init__(self, env: Environment, costs: CostModel = DEFAULT_COSTS,
                 stats: Optional[IoEventStats] = None,
                 mtu: int = STANDARD_MTU,
                 tracer: Optional[Any] = None) -> None:
        super().__init__(env, None, [], costs, stats, None, mtu, tracer)
        # The guest driver rings the shadow doorbell — a store the device
        # polls, not a trapped MMIO — and drives the device stack itself.
        c = self.costs
        self._blk_submit = (c.guest_blk_per_req_cycles
                            + c.nvme_shadow_doorbell_cycles)
        self.mapped_qpairs = 0
        self.admin_commands = Counter("admin_commands")
        self.data_submissions = Counter("data_submissions")
        self._submitted = self.data_submissions

    def register_telemetry(self, namespace: Any) -> None:
        super().register_telemetry(namespace)
        namespace.register_gauge("mapped_qpairs",
                                 lambda m=self: m.mapped_qpairs)
        namespace.register_counter("admin_commands", self.admin_commands)
        namespace.register_counter("data_submissions", self.data_submissions)

    def attach_block_device(self, vm: Vm,
                            device: StorageDevice) -> HostBlockHandle:
        """Map a per-VM I/O queue pair onto ``device``.

        Queue-pair creation goes through the trapped admin path — the one
        place this model still exits.
        """
        handle = super().attach_block_device(vm, device)
        self.mapped_qpairs += 1
        self.env.process(self._admin_create_qpair(vm),
                         name=f"nvmept-admin:{vm.name}")
        return handle

    def _admin_create_qpair(self, vm: Vm) -> Iterator[Event]:
        c = self.costs
        for _ in range(_ADMIN_CMDS_PER_QPAIR):
            self.admin_commands.add()
            yield vm.sync_exit(extra_cycles=c.nvme_admin_cmd_cycles)


register_host_model(
    NvmePtModel, ranks=(60, 60, 40),
    description=("NVMe I/O-queue passthrough: shadow doorbells, exitless "
                 "data path, trapped admin queue (arXiv 2304.05148)"))
