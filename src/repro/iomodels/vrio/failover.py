"""IOhost failure and recovery (§4.6 *Fault Tolerance*).

A vRIO rack wired as in Figure 2 loses reachability when its IOhost dies.
The paper's remedy: connect VMhosts to the IOhost *through the rack
switch*, so that on failure the switch can re-steer each IOclient's
F-address traffic — and the client falls back on regular (local) virtio,
served by its own VMhost.  Block devices recover only if backed by
distributed storage; a device that lived exclusively on the dead IOhost is
lost "akin to losing a local drive".

This module implements both halves:

* :func:`fail_iohost` — kills the I/O hypervisor: workers stop serving,
  in-flight and future frames are dropped, and block requests start
  failing through the §4.5 retransmission machinery.
* :func:`fall_back_to_local_virtio` — re-homes a client's F address onto
  its VMhost's switch-facing NIC (with the switch re-learning the port)
  and splices a local trap-and-emulate virtio service underneath the
  client's existing :class:`~repro.iomodels.base.NetPort`, so workloads
  keep running unmodified.  Optionally re-attaches the block device to a
  local replica (the distributed-storage case).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...hw.cpu import Core
from ...hw.nic import Nic
from ...hw.storage import StorageDevice
from ...hw.link import LinkEndpoint
from ...hw.switch_fabric import Switch
from .frontend import VrioClient, VrioModel

if TYPE_CHECKING:
    from ..baseline import BaselineModel

__all__ = ["fail_iohost", "fall_back_to_local_virtio"]


def fail_iohost(model: VrioModel) -> None:
    """Kill the I/O hypervisor.

    All NIC pumps and worker paths stop producing output; anything in
    flight is lost.  Clients' block reliability layers will detect the
    silence via timeouts.
    """
    model.failed = True


def fall_back_to_local_virtio(model: VrioModel, client: VrioClient,
                              vmhost_nic: Nic, io_core: Core,
                              switch: Optional[Switch] = None,
                              switch_port: Optional["LinkEndpoint"] = None,
                              replica_device: Optional[StorageDevice] = None,
                              ) -> BaselineModel:
    """Recover one IOclient after its IOhost died.

    Parameters
    ----------
    vmhost_nic:
        The VMhost NIC reachable from the fabric (switch-facing).
    io_core:
        A VMhost core for the local vhost service (the fallback gives up
        the consolidation benefit, exactly as the paper says).
    switch, switch_port:
        If given, the switch re-learns the client's F MAC onto the
        VMhost's port (the §4.6 "configuring the switch to channel
        IOclient traffic to the appropriate" place).
    replica_device:
        A local replica of the remote block device (distributed-storage
        case).  Without it, the client's remote disks stay dead.

    Returns the local :class:`BaselineModel` serving the client (exposed
    for inspection; the client's original port keeps working).
    """
    # The host-side models import this package (for BlockDeviceError).
    from ..baseline import BaselineModel
    port = client.port
    local = BaselineModel(model.env, vmhost_nic, io_core, costs=model.costs,
                          stats=model.stats)
    # Keep the externally visible F address: the local virtio device is
    # created with the same MAC, and the fabric re-learns its location.
    local_port = local.attach_vm(client.vm, mac=port.mac)
    if switch is not None:
        if switch_port is None:
            raise ValueError("switch re-learning needs the VMhost's port")
        switch.learn(port.mac, switch_port)
    # Splice the local datapath under the client's existing port so the
    # workload's handlers keep working unmodified.
    port._transmit = local_port._transmit
    port.app_dilation = local_port.app_dilation
    local_port.receive_handler = port.deliver
    client.transport_mode = "virtio-local"
    if replica_device is not None:
        handle = local.attach_block_device(client.vm, replica_device)
        client.local_block_handle = handle
    return local
