"""Programmable I/O interposition.

The whole point of interposable virtual I/O (§1): the host — or, in vRIO,
the remote I/O hypervisor — can run arbitrary services on every request.
An :class:`Interposer` contributes CPU cycles (charged on the servicing
sidecore/worker/vhost core) and may veto or annotate messages.

The chain is shared by all interposable models (baseline, Elvis, vRIO);
SRIOV bypasses it entirely, which is exactly its limitation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..sim import Counter

__all__ = ["Interposer", "InterposerChain"]


class Interposer:
    """Base class: one interposition service on the I/O path."""

    name = "interposer"

    def cycles(self, size_bytes: int, kind: str) -> int:
        """CPU cycles this service spends on a message of ``size_bytes``."""
        raise NotImplementedError

    def allow(self, message) -> bool:
        """Whether the message may proceed (firewalls veto here)."""
        return True

    def observe(self, message) -> None:
        """Side-effect hook (metering, dedup bookkeeping)."""


class InterposerChain:
    """An ordered list of interposers applied to every message."""

    def __init__(self, interposers: Optional[Iterable[Interposer]] = None):
        self.interposers: List[Interposer] = list(interposers or [])
        self.processed = Counter("interposed")
        self.vetoed = Counter("vetoed")

    def add(self, interposer: Interposer) -> None:
        self.interposers.append(interposer)

    def cycles(self, size_bytes: int, kind: str = "data") -> int:
        """Total chain cycles for one message."""
        if not self.interposers:
            return 0
        return sum(i.cycles(size_bytes, kind) for i in self.interposers)

    def admit(self, message) -> bool:
        """Run observe/allow hooks; False means the message is dropped."""
        self.processed.add()
        for interposer in self.interposers:
            interposer.observe(message)
            if not interposer.allow(message):
                self.vetoed.add()
                return False
        return True

    def __len__(self) -> int:
        return len(self.interposers)
