"""Ethernet substrate: frames, MACs, segmentation/TSO/reassembly."""

from .frame import (
    ETHERNET_HEADER_BYTES,
    FAKE_TCPIP_HEADER_BYTES,
    JUMBO_MTU_MAX,
    JUMBO_MTU_VRIO,
    STANDARD_MTU,
    VRIO_HEADER_BYTES,
    EthernetFrame,
    MacAddress,
)
from .segmentation import (
    PAGE_BYTES,
    SKB_MAX_FRAGMENTS,
    TSO_MAX_BYTES,
    ReassemblyBuffer,
    ReassemblyError,
    Segment,
    fragment_count,
    pages_for_fragment,
    reassembly_is_zero_copy,
    segment_sizes,
)

__all__ = [
    "EthernetFrame", "MacAddress",
    "ETHERNET_HEADER_BYTES", "VRIO_HEADER_BYTES", "FAKE_TCPIP_HEADER_BYTES",
    "STANDARD_MTU", "JUMBO_MTU_VRIO", "JUMBO_MTU_MAX",
    "Segment", "ReassemblyBuffer", "ReassemblyError",
    "segment_sizes", "fragment_count", "pages_for_fragment",
    "reassembly_is_zero_copy",
    "TSO_MAX_BYTES", "SKB_MAX_FRAGMENTS", "PAGE_BYTES",
]
