"""Waitable queues and resources for the simulation kernel.

:class:`Store` is an unbounded-or-bounded FIFO of Python objects with
blocking ``get``/``put``; :class:`Resource` is a counting resource with FIFO
admission.  Both hand out plain :class:`~repro.sim.engine.Event` objects so
they compose with ``yield`` inside processes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import _PENDING, Environment, Event, SimulationError

__all__ = ["Store", "Resource", "PriorityStore"]


class Store:
    """A FIFO buffer of items with waitable get/put.

    With ``capacity=None`` the store is unbounded and ``put`` always
    succeeds immediately.  Otherwise ``put`` blocks while full.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Deque[Any]:
        """The buffered items (read-only view by convention)."""
        return self._items

    def put(self, item: Any) -> Event:
        """Return an event that triggers once ``item`` is buffered."""
        event = Event(self.env)
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
            self._wake_getter()
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self._wake_getter()
        return True

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                self._admit_putter()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _wake_getter(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter._state != _PENDING:
                continue
            getter.succeed(self._items.popleft())
            if self._putters:
                self._admit_putter()

    def _admit_putter(self) -> None:
        while self._putters:
            if self.capacity is not None and len(self._items) >= self.capacity:
                return
            event, item = self._putters.popleft()
            if event._state != _PENDING:
                continue
            self._items.append(item)
            event.succeed()
            self._wake_getter()


class PriorityStore(Store):
    """A Store that yields the smallest item first.

    Items must be orderable; ties resolve by insertion order.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None) -> None:
        super().__init__(env, capacity)
        self._counter = 0

    def put(self, item: Any) -> Event:
        self._counter += 1
        return super().put((item, self._counter))

    def try_put(self, item: Any) -> bool:
        self._counter += 1
        return super().try_put((item, self._counter))

    def get(self) -> Event:
        self._sort()
        event = super().get()
        if event._state != _PENDING:
            event._value = event._value[0]
        else:
            # A deferred getter receives the stored (item, seq) pair;
            # unwrap it before any waiter sees the value.
            event.prepend_callback(_unwrap)
        return event

    def try_get(self) -> tuple:
        """Non-blocking get of the smallest item; returns ``(ok, item)``."""
        self._sort()
        ok, entry = super().try_get()
        return (True, entry[0]) if ok else (False, None)

    def _sort(self) -> None:
        self._items = deque(sorted(self._items))


def _unwrap(event: Event) -> None:
    event._value = event._value[0]


class Resource:
    """A counting resource with FIFO admission.

    Usage::

        req = resource.request()
        yield req
        ...critical section...
        resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that triggers when a slot is acquired."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one previously acquired slot."""
        if self._in_use <= 0:
            raise SimulationError("release without matching request")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter._state != _PENDING:
                continue
            waiter.succeed()
            return
        self._in_use -= 1
