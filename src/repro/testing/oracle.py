"""A pure-``heapq`` reference scheduler for differential kernel tests.

The model is the simplest one with the kernel's ordering contract: one
binary heap of ``(time, seq, fn)`` entries in which every schedule,
zero-delay included, takes the next sequence number.  It knows nothing
of events or processes; a test mirrors a program onto it through
``call_soon``/``schedule_at`` and compares the dispatch order, the clock
after ``run(until)``, ``peek`` and the clock advances with those of
:class:`repro.sim.Environment`, whose ready deque plus timer heap must
reproduce this order exactly.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

__all__ = ["HeapOracle"]


class HeapOracle:
    """One heap, one sequence number per schedule; ``advances`` logs the
    clock each time it strictly moves (what ``on_advance`` monitors see)."""

    def __init__(self) -> None:
        self.now = 0
        self.advances: List[int] = []
        self._entries: List[Tuple[int, int, Callable[[], None]]] = []
        self._count = 0

    def call_soon(self, fn: Callable[[], None], delay: int = 0) -> None:
        self._count += 1
        heapq.heappush(self._entries, (self.now + delay, self._count, fn))

    def schedule_at(self, at_ns: int, fn: Callable[[], None]) -> None:
        self.call_soon(fn, at_ns - self.now)

    def peek(self) -> Optional[int]:
        return self._entries[0][0] if self._entries else None

    def step(self) -> None:
        when, _, fn = heapq.heappop(self._entries)
        self._advance(when)
        fn()

    def run(self, until: Optional[int] = None) -> None:
        while self._entries and (until is None
                                 or self._entries[0][0] <= until):
            self.step()
        if until is not None:
            self._advance(until)

    def _advance(self, t: int) -> None:
        if t > self.now:
            self.now = t
            self.advances.append(t)
