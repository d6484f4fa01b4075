"""The guest OS disk scheduler.

Paper §4.5 leans on a guest-kernel invariant: the disk scheduler (not the
driver) reorders requests such that *each individual block has at most one
outstanding request*, with subsequent requests for that block held pending.
vRIO's block retransmission is only safe because of this — a retransmitted
write can never race a newer request for the same block.

:class:`GuestBlockScheduler` enforces the invariant above a driver-submit
function and exposes it for property testing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Set

from ..hw.storage import BlockRequest
from ..sim import Counter, Environment, Event

__all__ = ["GuestBlockScheduler"]


class GuestBlockScheduler:
    """Serializes same-sector requests before they reach the driver.

    ``driver_submit`` is the front-end driver's submit function, returning a
    completion event.  Requests touching disjoint sector ranges proceed
    concurrently; overlapping ones queue in arrival order.
    """

    def __init__(self, env: Environment,
                 driver_submit: Callable[[BlockRequest], Event]):
        self.env = env
        self._driver_submit = driver_submit
        self._outstanding: Set[int] = set()       # sectors with in-flight I/O
        self._pending: Deque[BlockRequest] = deque()
        self._completions: Dict[int, Event] = {}  # request_id -> caller event
        self.held_back = Counter("blocked_on_same_sector")
        self.submitted = Counter("submitted")

    def _sectors_of(self, request: BlockRequest):
        return range(request.sector, request.sector + request.sectors)

    def _conflicts(self, request: BlockRequest) -> bool:
        return not self._outstanding.isdisjoint(self._sectors_of(request))

    def submit(self, request: BlockRequest) -> Event:
        """Queue a request; returns the completion event."""
        done = self.env.event()
        self._completions[request.request_id] = done
        if self._conflicts(request) or self._pending:
            self.held_back.add()
            self._pending.append(request)
        else:
            self._dispatch(request)
        return done

    @property
    def outstanding_sectors(self) -> Set[int]:
        return set(self._outstanding)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _dispatch(self, request: BlockRequest) -> None:
        self._outstanding.update(self._sectors_of(request))
        self.submitted.add()
        driver_done = self._driver_submit(request)
        driver_done.add_callback(
            lambda _event, req=request: self._on_complete(req))

    def _on_complete(self, request: BlockRequest) -> None:
        self._outstanding.difference_update(self._sectors_of(request))
        done = self._completions.pop(request.request_id)
        done.succeed(request)
        # Admit pending requests that no longer conflict, preserving order:
        # stop at the first conflicting one to avoid starving it.
        while self._pending and not self._conflicts(self._pending[0]):
            self._dispatch(self._pending.popleft())
