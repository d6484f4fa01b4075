"""Ethernet frames and MAC addressing for the simulated fabric.

A frame carries an opaque ``payload`` object plus explicit on-wire byte
counts.  Serialization delays are always computed from ``wire_bytes`` so
that header overheads (Ethernet, the vRIO encapsulation, the fake TCP/IP
header used for TSO) show up in link utilization exactly as they would on
real hardware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

__all__ = [
    "MacAddress",
    "EthernetFrame",
    "ETHERNET_HEADER_BYTES",
    "VRIO_HEADER_BYTES",
    "FAKE_TCPIP_HEADER_BYTES",
    "STANDARD_MTU",
    "JUMBO_MTU_VRIO",
    "JUMBO_MTU_MAX",
]

# On-wire constants (bytes).
ETHERNET_HEADER_BYTES = 18          # header + FCS
VRIO_HEADER_BYTES = 16              # vRIO encapsulation metadata (§4.1)
FAKE_TCPIP_HEADER_BYTES = 40        # fake TCP/IP header enabling TSO (§4.3)

STANDARD_MTU = 1500
JUMBO_MTU_VRIO = 8100               # chosen so TSO fragments fit 2x4KB pages
JUMBO_MTU_MAX = 9000


_mac_counter = itertools.count(1)


class MacAddress:
    """A unique layer-2 address.  Identity-comparable and hashable."""

    __slots__ = ("value", "label")

    def __init__(self, label: str = ""):
        self.value = next(_mac_counter)
        self.label = label

    def __hash__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and other.value == self.value

    def __repr__(self) -> str:
        octets = [(self.value >> shift) & 0xFF for shift in (40, 32, 24, 16, 8, 0)]
        text = ":".join(f"{o:02x}" for o in octets)
        return f"<MAC {text} {self.label}>" if self.label else f"<MAC {text}>"


@dataclass
class EthernetFrame:
    """One frame on the wire.

    ``payload_bytes`` is the L2 payload size; ``wire_bytes`` adds the
    Ethernet header and FCS and is what links serialize.
    """

    src: MacAddress
    dst: MacAddress
    payload: Any
    payload_bytes: int
    kind: str = "data"
    created_ns: int = 0

    def __post_init__(self):
        if self.payload_bytes < 0:
            raise ValueError(f"negative payload size: {self.payload_bytes}")

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + ETHERNET_HEADER_BYTES
