"""Segmentation, TSO, and zero-copy reassembly (paper §4.3–§4.4).

vRIO runs over raw Ethernet, so messages larger than the MTU must be
segmented by the transport driver and reassembled at the far side.  The
paper's optimizations are reproduced exactly:

* **Jumbo frames** — the channel uses MTU 8100 rather than the 9000-byte
  maximum, so that every TSO fragment (plus headers) fits in two 4 KB pages.
* **TSO via a fake TCP/IP header** — chunks up to 64 KB are handed to the
  NIC whole and segmented in hardware, so the CPU pays per-chunk rather than
  per-fragment cost.
* **Zero-copy reassembly** — a Linux SKB can map at most 17 fragments, each
  within one 4 KB page.  With MTU 8100 a 64 KB message produces at most 9
  TSO fragments, 8 of which span two pages and one under a page:
  8×2 + 1 = 17 pages, exactly the limit.  With MTU 9000 the constraint is
  violated and the receiver must copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .frame import JUMBO_MTU_VRIO

__all__ = [
    "TSO_MAX_BYTES",
    "SKB_MAX_FRAGMENTS",
    "PAGE_BYTES",
    "segment_sizes",
    "fragment_count",
    "pages_for_fragment",
    "reassembly_is_zero_copy",
    "Segment",
    "ReassemblyBuffer",
    "ReassemblyError",
]

TSO_MAX_BYTES = 64 * 1024      # maximal TCP/IP message, and thus TSO chunk
SKB_MAX_FRAGMENTS = 17         # Linux SKB page-fragment limit
PAGE_BYTES = 4096


def segment_sizes(message_bytes: int, mtu: int) -> List[int]:
    """Split a message into MTU-sized wire fragments.

    Returns the payload size of each fragment, largest-first; the final
    fragment carries the remainder.
    """
    if message_bytes <= 0:
        raise ValueError(f"message size must be positive, got {message_bytes}")
    if mtu <= 0:
        raise ValueError(f"MTU must be positive, got {mtu}")
    full, rest = divmod(message_bytes, mtu)
    sizes = [mtu] * full
    if rest:
        sizes.append(rest)
    return sizes


def fragment_count(message_bytes: int, mtu: int) -> int:
    """``len(segment_sizes(message_bytes, mtu))`` without the list."""
    if message_bytes <= 0 or mtu <= 0:
        segment_sizes(message_bytes, mtu)  # raises its ValueError
    return -(-message_bytes // mtu)


def pages_for_fragment(fragment_bytes: int, header_bytes: int = 0) -> int:
    """Number of 4 KB pages needed to hold a fragment plus its headers."""
    total = fragment_bytes + header_bytes
    return -(-total // PAGE_BYTES)  # ceil division


def reassembly_is_zero_copy(message_bytes: int, mtu: int,
                            header_bytes: int = 0) -> bool:
    """Whether a message reassembles into one SKB without copying.

    True iff the total page count of all fragments is within the 17-fragment
    SKB limit.  With the paper's MTU of 8100 this holds for every message up
    to 64 KB; with MTU 9000 it does not.
    """
    if message_bytes > TSO_MAX_BYTES:
        return False
    if message_bytes <= 0 or mtu <= 0:
        segment_sizes(message_bytes, mtu)  # raises its ValueError
    # The page sum over segment_sizes(), in closed form: ``full``
    # MTU-sized fragments plus one remainder fragment.
    full, rest = divmod(message_bytes, mtu)
    pages = full * pages_for_fragment(mtu, header_bytes)
    if rest:
        pages += pages_for_fragment(rest, header_bytes)
    return pages <= SKB_MAX_FRAGMENTS


@dataclass
class Segment:
    """One fragment of a segmented message."""

    message_id: int
    index: int
    count: int
    payload_bytes: int
    message_bytes: int
    meta: dict = field(default_factory=dict)


class ReassemblyError(Exception):
    """Raised on malformed or inconsistent fragment streams."""


class ReassemblyBuffer:
    """Reassembles segmented messages, tracking zero-copy eligibility.

    Fragments may arrive for several messages concurrently (one reassembly
    context per ``message_id``).  ``add()`` returns the completed message
    descriptor once all fragments are present, else ``None``.
    """

    def __init__(self, mtu: int = JUMBO_MTU_VRIO, header_bytes: int = 0):
        self.mtu = mtu
        self.header_bytes = header_bytes
        self._partial: Dict[int, List[Optional[Segment]]] = {}
        self.completed_messages = 0
        self.copied_messages = 0       # fell off the zero-copy path
        self.zero_copy_messages = 0

    @property
    def pending(self) -> int:
        return len(self._partial)

    def add(self, segment: Segment) -> Optional[dict]:
        """Insert a fragment; return the message descriptor if complete."""
        if segment.count <= 0:
            raise ReassemblyError(f"bad fragment count {segment.count}")
        if not 0 <= segment.index < segment.count:
            raise ReassemblyError(
                f"fragment index {segment.index} out of range 0..{segment.count - 1}")
        slots = self._partial.get(segment.message_id)
        if slots is None:
            slots = [None] * segment.count
            self._partial[segment.message_id] = slots
        if len(slots) != segment.count:
            raise ReassemblyError(
                f"message {segment.message_id}: fragment count changed "
                f"{len(slots)} -> {segment.count}")
        if slots[segment.index] is not None:
            # Duplicate (e.g. retransmission overlap): idempotent.
            return None
        slots[segment.index] = segment
        if any(s is None for s in slots):
            return None
        del self._partial[segment.message_id]
        message_bytes = sum(s.payload_bytes for s in slots)
        if message_bytes != segment.message_bytes:
            raise ReassemblyError(
                f"message {segment.message_id}: reassembled {message_bytes}B, "
                f"expected {segment.message_bytes}B")
        zero_copy = reassembly_is_zero_copy(
            message_bytes, self.mtu, self.header_bytes)
        self.completed_messages += 1
        if zero_copy:
            self.zero_copy_messages += 1
        else:
            self.copied_messages += 1
        return {
            "message_id": segment.message_id,
            "message_bytes": message_bytes,
            "zero_copy": zero_copy,
            "fragments": len(slots),
            "meta": slots[0].meta,
        }

    def drop_message(self, message_id: int) -> None:
        """Discard a partially reassembled message (e.g. after timeout)."""
        self._partial.pop(message_id, None)
