"""The vRIO transport driver — the IOclient side of the channel (§4.1).

The transport driver sits below the paravirtual front-ends and above the
SRIOV channel VF.  On transmit it encapsulates virtio requests with vRIO
metadata, prepends the fake TCP/IP header that lets the NIC's TSO engine
segment chunks up to 64 KB in hardware, and splits anything larger (block
I/O) into multiple TSO chunks.  On receive it reassembles and decapsulates,
then upcalls the front-end.

Byte-exact wire accounting: every chunk frame's payload counts the vRIO
header once, a fake TCP/IP header per TSO fragment, and an extra Ethernet
header per fragment beyond the first (the frame object itself carries one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:
    from ..costs import CostModel

from ...net.frame import (
    ETHERNET_HEADER_BYTES,
    FAKE_TCPIP_HEADER_BYTES,
    JUMBO_MTU_VRIO,
    VRIO_HEADER_BYTES,
)
from ...net.segmentation import TSO_MAX_BYTES, fragment_count, segment_sizes
from ...sim import Counter

__all__ = [
    "ChannelPacket",
    "chunk_sizes",
    "chunk_fragments",
    "chunk_wire_payload_bytes",
    "transport_tx_cycles",
    "transport_rx_cycles",
    "TransportStats",
]


@dataclass
class ChannelPacket:
    """One chunk frame on the VMhost<->IOhost channel."""

    client_id: str              # which IOclient (VM or bare-metal OS)
    direction: str              # "to_iohost" or "to_guest"
    inner: Any                  # NetMessage, BlockChannelOp/Resp, ControlCommand
    message_id: int
    chunk_index: int
    chunk_count: int
    chunk_bytes: int
    fragments: int
    meta: Dict[str, Any] = field(default_factory=dict)


def chunk_sizes(message_bytes: int) -> List[int]:
    """Split a message into TSO-sized chunks (<=64 KB each)."""
    return segment_sizes(message_bytes, TSO_MAX_BYTES)


def chunk_fragments(chunk_bytes: int, mtu: int = JUMBO_MTU_VRIO) -> int:
    """TSO fragments the NIC will emit for one chunk (incl. headers)."""
    return fragment_count(chunk_bytes + VRIO_HEADER_BYTES
                          + FAKE_TCPIP_HEADER_BYTES, mtu)


def chunk_wire_payload_bytes(chunk_bytes: int,
                             mtu: int = JUMBO_MTU_VRIO) -> int:
    """L2 payload bytes one chunk occupies on the channel wire."""
    fragments = chunk_fragments(chunk_bytes, mtu)
    return (chunk_bytes
            + VRIO_HEADER_BYTES
            + fragments * FAKE_TCPIP_HEADER_BYTES
            + (fragments - 1) * ETHERNET_HEADER_BYTES)


def transport_tx_cycles(costs: "CostModel", chunk_bytes: int,
                        mtu: int = JUMBO_MTU_VRIO) -> int:
    """Guest cycles to encapsulate + hand one chunk to the channel VF.

    TSO makes this per-chunk, not per-fragment, on the transmit side — the
    NIC does the slicing (§4.3).  Only block traffic larger than 64 KB pays
    software segmentation, which shows up as multiple chunks.
    """
    return int(costs.vrio_transport_per_msg_cycles
               + costs.ring_op_cycles)


def transport_rx_cycles(costs: "CostModel", chunk_bytes: int,
                        mtu: int = JUMBO_MTU_VRIO) -> int:
    """Guest cycles to receive one chunk: reassembly IS software (§4.3)."""
    fragments = chunk_fragments(chunk_bytes, mtu)
    return int(costs.vrio_transport_per_msg_cycles
               + costs.vrio_transport_per_frag_cycles * fragments)


class TransportStats:
    """Counters for one IOclient's transport driver."""

    def __init__(self, name: str = "transport") -> None:
        self.chunks_sent = Counter(f"{name}.chunks_sent")
        self.chunks_received = Counter(f"{name}.chunks_received")
        self.messages_sent = Counter(f"{name}.messages_sent")
        self.messages_received = Counter(f"{name}.messages_received")
        self.bytes_sent = Counter(f"{name}.bytes_sent")
        self.bytes_received = Counter(f"{name}.bytes_received")
