"""Common abstractions shared by every I/O model.

The contract every model implements:

* a **net port** per VM (:class:`NetPort`): workloads call
  :meth:`NetPort.send` and install :attr:`NetPort.receive_handler`; the
  model moves the message across the fabric, charging every core and wire
  on the way, and finally invokes the far side's handler *after* guest-side
  interrupt processing;
* a **block device** per VM (models expose ``attach_block_device``
  returning an object with ``submit(BlockRequest) -> Event``);
* an :class:`IoEventStats` instance counting the Table-3 events.

:class:`ExternalEndpoint` models bare-metal machines (the load generators)
as first-class fabric citizens with the same send/receive interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional

from ..hw.cpu import Core
from ..hw.nic import NicFunction
from ..net.frame import ETHERNET_HEADER_BYTES, EthernetFrame, MacAddress, STANDARD_MTU
from ..net.segmentation import fragment_count
from ..sim import Counter, Environment

if TYPE_CHECKING:
    from ..guest.vm import Vm
    from ..sim.engine import Event

__all__ = [
    "IoEventStats",
    "NetMessage",
    "NetPort",
    "ExternalEndpoint",
    "message_wire_bytes",
]

_message_ids = itertools.count(1)


class IoEventStats:
    """The five Table-3 event counters for one I/O model instance."""

    COLUMNS = ("exits", "guest_interrupts", "injections",
               "host_interrupts", "iohost_interrupts")

    def __init__(self, name: str = ""):
        self.name = name
        self.exits = Counter("exits")
        self.guest_interrupts = Counter("guest_interrupts")
        self.injections = Counter("injections")
        self.host_interrupts = Counter("host_interrupts")
        self.iohost_interrupts = Counter("iohost_interrupts")

    def snapshot(self) -> Dict[str, int]:
        return {col: getattr(self, col).value for col in self.COLUMNS}

    def total(self) -> int:
        """The paper's "sum" column: all overhead events combined."""
        return sum(getattr(self, col).value for col in self.COLUMNS)

    def reset(self) -> None:
        for col in self.COLUMNS:
            getattr(self, col).reset()


@dataclass
class NetMessage:
    """An application-level message travelling between F-level endpoints."""

    src: MacAddress
    dst: MacAddress
    size_bytes: int
    kind: str = "data"
    message_id: int = field(default_factory=lambda: next(_message_ids))
    created_ns: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"message size must be positive: {self.size_bytes}")


def message_wire_bytes(size_bytes: int, mtu: int = STANDARD_MTU) -> int:
    """Total L2 payload bytes for a TSO-aggregated message.

    The message travels as one simulated frame, but its wire time must
    account for the per-MTU-fragment headers real hardware emits.
    """
    fragments = fragment_count(size_bytes, mtu)
    return size_bytes + (fragments - 1) * ETHERNET_HEADER_BYTES


class NetPort:
    """The workload-facing network interface of one VM under one model.

    Concrete models construct these, binding ``_transmit`` to their own
    datapath.  ``receive_handler`` fires with a :class:`NetMessage` after
    the guest has paid interrupt + stack costs for its arrival.
    """

    def __init__(self, env: Environment, vm: "Vm", mac: MacAddress,
                 transmit: Callable[[NetMessage], None],
                 app_dilation: float = 1.0,
                 per_send_extra_cycles: int = 0) -> None:
        self.env = env
        self.vm = vm
        self.mac = mac
        self._transmit = transmit
        self.app_dilation = app_dilation
        # Extra guest cycles the model's xmit path adds per send() syscall
        # (nonzero only for vRIO's transport driver).
        self.per_send_extra_cycles = per_send_extra_cycles
        self.receive_handler: Optional[Callable[[NetMessage], None]] = None
        self.tx_messages = Counter("tx_messages")
        self.rx_messages = Counter("rx_messages")
        self.tx_bytes = Counter("tx_bytes")
        self.rx_bytes = Counter("rx_bytes")

    def send(self, dst: MacAddress, size_bytes: int, kind: str = "data",
             meta: Optional[Dict[str, Any]] = None) -> NetMessage:
        """Asynchronously send a message.  Guest-side costs are charged by
        the model's datapath; the call returns immediately."""
        message = NetMessage(src=self.mac, dst=dst, size_bytes=size_bytes,
                             kind=kind, created_ns=self.env.now,
                             meta=meta or {})
        self.tx_messages.add()
        self.tx_bytes.add(size_bytes)
        self._transmit(message)
        return message

    def deliver(self, message: NetMessage) -> None:
        """Called by the model once the guest has processed the arrival."""
        self.rx_messages.add()
        self.rx_bytes.add(message.size_bytes)
        if self.receive_handler is not None:
            self.receive_handler(message)

    def app_cycles(self, cycles: int) -> int:
        """Application cycle counts, dilated by the model's pollution factor."""
        return int(cycles * self.app_dilation)


class ExternalEndpoint:
    """A bare-metal machine on the fabric (load generator or server).

    Owns a core and a NIC function; converts between frames and
    :class:`NetMessage`, charging per-message stack costs on its core.
    """

    def __init__(self, env: Environment, name: str, core: Core,
                 nic_fn: NicFunction, per_msg_cycles: int = 4_500,
                 mtu: int = STANDARD_MTU) -> None:
        self.env = env
        self.name = name
        self.core = core
        self.nic_fn = nic_fn
        self.per_msg_cycles = per_msg_cycles
        self.mtu = mtu
        self.mac = nic_fn.mac
        self.receive_handler: Optional[Callable[[NetMessage], None]] = None
        self.tx_messages = Counter("tx_messages")
        self.rx_messages = Counter("rx_messages")
        nic_fn.notify_mode = "eli"   # bare metal: no virtualization overhead
        nic_fn.on_notify = self._on_rx

    def send(self, dst: MacAddress, size_bytes: int, kind: str = "data",
             meta: Optional[Dict[str, Any]] = None) -> NetMessage:
        message = NetMessage(src=self.mac, dst=dst, size_bytes=size_bytes,
                             kind=kind, created_ns=self.env.now,
                             meta=meta or {})
        self.tx_messages.add()
        self.env.process(self._tx_path(message), name=f"{self.name}-tx")
        return message

    def _tx_path(self, message: NetMessage) -> Iterator["Event"]:
        yield self.core.execute(self.per_msg_cycles, tag="net_stack")
        frame = EthernetFrame(
            src=self.mac, dst=message.dst, payload=message,
            payload_bytes=message_wire_bytes(message.size_bytes, self.mtu),
            kind=message.kind, created_ns=self.env.now)
        self.nic_fn.transmit(frame)

    def _on_rx(self) -> None:
        self.env.process(self._rx_path(), name=f"{self.name}-rx")

    def _rx_path(self) -> Iterator["Event"]:
        while True:
            ok, frame = self.nic_fn.rx_ring.try_get()
            if not ok:
                break
            yield self.core.execute(self.per_msg_cycles, tag="net_stack",
                                    high_priority=True)
            self.rx_messages.add()
            if self.receive_handler is not None:
                self.receive_handler(frame.payload)
        self.nic_fn.rearm()
