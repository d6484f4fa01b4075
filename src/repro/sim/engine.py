"""Discrete-event simulation kernel.

A small, fast, generator-based event engine in the style of SimPy, built for
the vRIO reproduction.  Time is kept as an integer number of nanoseconds so
that event ordering is exact and runs are bit-reproducible.

The core concepts:

* :class:`Environment` owns the clock and the pending-event queue.
* :class:`Event` is a one-shot waitable.  Processes wait on events by
  yielding them.
* :class:`Process` wraps a generator.  Each ``yield`` suspends the process
  until the yielded event triggers; the event's value becomes the result of
  the ``yield`` expression.  A process is itself an event that triggers when
  the generator returns (with the generator's return value).
* :func:`Timeout` builds an event that triggers after a fixed delay.  It
  is a plain :class:`Event` with its ``delay`` set, not a subclass: the
  run loops and :class:`Process` read and write the same slots on every
  item, and CPython caches those accesses per exact type, so timers and
  triggered events share one class (DESIGN §11).

Scheduler
---------
Pending work lives in two structures:

* a FIFO deque of *ready* items — events triggered at the current time
  and zero-delay ``call_soon`` entries (the bulk of per-packet traffic:
  descriptor completions, queue hand-offs);
* a ``heapq`` of timers — every positive delay, as ``(time, seq, item)``
  with ``seq`` a monotone counter that keeps equal-time timers FIFO.

At any timestamp every timer precedes every ready item in ``(time,
seq)`` order: a timer due at ``t`` was scheduled before the clock
reached ``t``, a ready item only once it had.  Draining "timers at
``t``, then ready" therefore dispatches exactly the order of a single
heap in which every schedule, zero-delay included, takes a sequence
number (the reference model in :mod:`repro.testing.oracle`).

Example
-------
>>> env = Environment()
>>> def proc(env):
...     yield env.timeout(5)
...     return env.now
>>> p = env.process(proc(env))
>>> env.run()
>>> p.value
5
"""

from __future__ import annotations

import operator
from collections import deque
from heapq import heappop, heappush
from typing import (Any, Callable, Deque, Generator, Iterable, List,
                    NoReturn, Optional, Tuple, Union)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event states.
_PENDING = 0
_TRIGGERED = 1  # scheduled, value fixed, callbacks not yet run
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time.  Waiting on an already-processed event resumes the waiter
    immediately (on the next scheduling step) with the stored value.

    Callbacks live in a flyweight pair — a single inline slot (``_cb0``,
    the common case: one waiter per event) plus an overflow list that is
    only allocated for the second waiter — so the per-packet event churn
    does not allocate a list per event.  Use :meth:`add_callback`,
    :meth:`prepend_callback` and :meth:`_discard_callback` to manage them;
    the :attr:`callbacks` view is read-only.

    ``delay`` is the delay a :func:`Timeout` was built with, and ``None``
    for every event that is not a timer.
    """

    __slots__ = ("env", "_cb0", "_cbs", "_value", "_state", "_ok", "delay")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._cb0: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._state = _PENDING
        self._ok = True
        self.delay: Optional[int] = None

    # -- inspection --------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (callbacks may not have run)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (not failed)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._state == _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    @property
    def callbacks(self) -> Tuple[Callable[["Event"], None], ...]:
        """Read-only view of the pending callbacks, in firing order."""
        first = self._cb0
        rest = self._cbs
        if first is None:
            return tuple(rest) if rest else ()
        if rest:
            return (first,) + tuple(rest)
        return (first,)

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._state = _TRIGGERED
        self.env._ready.append(self)
        return self

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        cb = self._cb0
        if cb is not None:
            self._cb0 = None
            cb(self)
        cbs = self._cbs
        if cbs is not None:
            self._cbs = None
            for cb in cbs:
                cb(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self._state == _PROCESSED:
            # Already done: deliver on the next scheduling step to preserve
            # run-to-completion semantics.
            self.env.call_soon(lambda: callback(self))
        elif self._cbs is not None:
            self._cbs.append(callback)
        elif self._cb0 is None:
            self._cb0 = callback
        else:
            self._cbs = [callback]

    def prepend_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to fire before any already-registered one."""
        first = self._cb0
        if first is None and not self._cbs:
            self._cb0 = callback
            return
        cbs = self._cbs if self._cbs is not None else []
        if first is not None:
            cbs.insert(0, first)
        self._cbs = cbs
        self._cb0 = callback

    def _discard_callback(self, callback: Callable[["Event"], None]) -> None:
        """Remove one registration of ``callback`` (no-op if absent)."""
        if self._cb0 == callback:
            self._cb0 = None
            return
        cbs = self._cbs
        if cbs is not None:
            try:
                cbs.remove(callback)
            except ValueError:
                pass


def Timeout(env: "Environment", delay: int, value: Any = None) -> Event:
    """An event that triggers ``delay`` nanoseconds in the future.

    A factory, not a subclass: the timer is a plain :class:`Event` with
    ``delay`` set, born triggered and pushed onto the timer heap, or onto
    the ready deque for a zero delay.  Its fields are set inline because
    timers are the per-packet allocation hot spot.
    """
    try:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
    except TypeError:
        raise _not_integer_ns(delay) from None
    event = object.__new__(Event)
    event.env = env
    event._cb0 = None
    event._cbs = None
    event._value = value
    event._state = _TRIGGERED
    event._ok = True
    event.delay = delay
    if delay:
        if delay.__class__ is not int:
            delay = _integer_delay(delay)
        seq = env._seq + 1
        env._seq = seq
        heappush(env._heap, (env._now + delay, seq, event))
    else:
        if delay.__class__ is not int:
            _integer_delay(delay)  # a float zero is refused like any float
        env._ready.append(event)
    return event


class Process(Event):
    """A running generator; also an event that triggers on completion.

    A wake — the event a process waits on being processed — resumes the
    generator in the one call :meth:`_on_event`, bound once per process
    as ``_wake`` so that registering and discarding it allocate nothing.
    """

    __slots__ = ("generator", "_waiting_on", "name", "_wake")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = "") -> None:
        # Inlined Event.__init__, as in Timeout: one process per spawn.
        self.env = env
        self._cb0 = None
        self._cbs = None
        self._value = None
        self._state = _PENDING
        self._ok = True
        self.delay = None
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._wake = self._on_event
        # Kick off on the next scheduling step.
        env.call_soon(lambda: self._resume(None, None))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._state != _PENDING:
            return
        waiting = self._waiting_on
        if waiting is not None:
            # Detach from the event we were waiting on.
            waiting._discard_callback(self._wake)
            self._waiting_on = None
        self.env.call_soon(lambda: self._resume(None, Interrupt(cause)))

    # -- plumbing ----------------------------------------------------------

    def _on_event(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome and wait on what
        it yields next: the whole per-wake path, in one call."""
        if self._state != _PENDING:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            # Event.succeed, inlined: _state was checked above, and
            # keeping processes out of succeed leaves it one class.
            self._value = stop.value
            self._state = _TRIGGERED
            self.env._ready.append(self)
            return
        except Interrupt:
            # An unhandled interrupt terminates the process quietly;
            # its _value is still the None it was born with.
            self._state = _TRIGGERED
            self.env._ready.append(self)
            return
        if not isinstance(target, Event) or target.env is not self.env:
            self._reject(target)
        self._waiting_on = target
        # add_callback, inlined for the common case: the inline slot is
        # free and no overflow list would fire ahead of it, so firing
        # order stays registration order.  A processed target still
        # defers through add_callback.
        if (target._cb0 is None and target._cbs is None
                and target._state != _PROCESSED):
            target._cb0 = self._wake
        else:
            target.add_callback(self._wake)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        """Start the generator, or throw an interrupt into it."""
        if self._state != _PENDING:
            return
        try:
            if exc is not None:
                target = self.generator.throw(exc)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self._value = stop.value
            self._state = _TRIGGERED
            self.env._ready.append(self)
            return
        except Interrupt:
            self._state = _TRIGGERED
            self.env._ready.append(self)
            return
        if not isinstance(target, Event) or target.env is not self.env:
            self._reject(target)
        self._waiting_on = target
        target.add_callback(self._wake)

    def _reject(self, target: Any) -> NoReturn:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event")
        raise SimulationError("yielded event belongs to another Environment")


class AllOf(Event):
    """Triggers when all given events have succeeded.

    Value is the list of the events' values in the given order.  Fails as
    soon as any constituent fails.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event.ok:
            # Detach from the still-outstanding children so a settled AllOf
            # holds no callbacks on long-lived events.
            for ev in self._events:
                if ev is not event:
                    ev._discard_callback(self._on_child)
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class AnyOf(Event):
    """Triggers when the first of the given events does.

    Value is a ``(event, value)`` tuple identifying the winner.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        # Detach from the losers: without this every losing event keeps the
        # settled AnyOf's callback registered forever, pinning it (and
        # firing into it) long after the race is decided.
        for ev in self._events:
            if ev is not event:
                ev._discard_callback(self._on_child)
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event.value)


class Environment:
    """The simulation clock and scheduler.

    Time is an integer count of nanoseconds since the start of the run.
    Zero-delay work waits in the FIFO ``_ready`` deque; every positive
    delay is a ``(time, seq, item)`` entry in the ``_heap`` of timers
    (see the module docstring for why draining "timers at ``t``, then
    ready" is the ``(time, seq)`` order).
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0  # tie-breaker preserving FIFO order at equal times
        # Ready lane: items due at the current time, in FIFO order —
        # triggered events and zero-delay call_soon entries.
        self._ready: Deque[Union[Event, Callable[[], None]]] = deque()
        self._heap: List[Tuple[int, int, Union[Event, Callable[[], None]]]] = []
        # Items dispatched so far: triggered events, and bare callables
        # (call_soon / schedule_at entries).  Their sum is the number of
        # scheduler steps, the count an on_step monitor would see.
        self.events_dispatched = 0
        self.callbacks_dispatched = 0
        self._monitors: List[Any] = []
        # Split views of _monitors by capability; add_monitor/remove_monitor
        # keep all three in sync.  _monitors stays the union because its
        # emptiness drives the fast/monitored loop switch.
        self._step_monitors: List[Any] = []
        self._advance_monitors: List[Any] = []

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    # -- monitoring --------------------------------------------------------

    def add_monitor(self, monitor: Any) -> None:
        """Attach an execution monitor.

        A monitor exposes either or both of two hooks.  ``on_step(now,
        item)`` is called after every scheduler step with the (possibly
        advanced) clock and the processed item — an :class:`Event` or,
        for ``call_soon`` entries, the bare callable.  ``on_advance(now)``
        is called whenever the clock strictly advances, *before* any item
        at the new timestamp dispatches — the hook windowed-telemetry
        timelines hang off, guaranteeing every observed sample is
        strictly older than ``now``.  The run loop is specialized at
        attach/detach time: with no monitors attached the engine runs a
        loop containing no monitor test at all, so production runs pay
        nothing.  Attaching mid-run takes effect at the next clock
        advance.
        """
        if monitor not in self._monitors:
            self._monitors.append(monitor)
            if hasattr(monitor, "on_step"):
                self._step_monitors.append(monitor)
            if hasattr(monitor, "on_advance"):
                self._advance_monitors.append(monitor)

    def remove_monitor(self, monitor: Any) -> None:
        """Detach a previously attached monitor (no-op if absent)."""
        for group in (self._monitors, self._step_monitors,
                      self._advance_monitors):
            try:
                group.remove(monitor)
            except ValueError:
                pass

    # -- scheduling --------------------------------------------------------

    def call_soon(self, fn: Callable[[], None], delay: int = 0) -> None:
        """Run ``fn()`` after ``delay`` ns (0 = this time step, FIFO)."""
        if delay:
            if delay.__class__ is not int:
                delay = _integer_delay(delay)
            if delay < 0:
                raise SimulationError(f"negative call_soon delay: {delay}")
            seq = self._seq + 1
            self._seq = seq
            heappush(self._heap, (self._now + delay, seq, fn))
        else:
            if delay.__class__ is not int:
                _integer_delay(delay)  # None and a float zero are refused
            self._ready.append(fn)

    def schedule_at(self, at_ns: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at the absolute time ``at_ns``.

        The hook for externally planned occurrences — fault injections,
        campaign phase marks — that are specified in wall-clock simulation
        time rather than relative to the caller.
        """
        try:
            behind = at_ns < self._now
        except TypeError:
            raise _not_integer_ns(at_ns, "time") from None
        if behind:
            raise SimulationError(
                f"cannot schedule at {at_ns} ns; clock is at {self._now} ns")
        self.call_soon(fn, delay=at_ns - self._now)

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Event:
        """Create an event that triggers ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next scheduled item."""
        heap = self._heap
        if heap and heap[0][0] == self._now:
            # Timers at the current time precede every ready item in
            # (time, seq) order (see the module docstring).
            when = self._now
            item = heappop(heap)[2]
        elif self._ready:
            when = self._now
            item = self._ready.popleft()
        elif not heap:
            raise IndexError("step from an empty schedule")
        else:
            when = heap[0][0]
            if when < self._now:
                raise SimulationError("time went backwards")
            self._now = when
            for monitor in self._advance_monitors:
                monitor.on_advance(when)
            item = heappop(heap)[2]
        if isinstance(item, Event):
            self.events_dispatched += 1
            item._run_callbacks()
        else:
            self.callbacks_dispatched += 1
            item()
        if self._step_monitors:
            for monitor in self._step_monitors:
                monitor.on_step(when, item)

    def run(self, until: Optional[int] = None) -> None:
        """Run until the schedule empties or the clock would pass ``until``.

        When ``until`` is given the clock is left exactly at ``until`` and
        any events scheduled for later remain pending.
        """
        if until is not None and until < self._now:
            raise SimulationError("cannot run backwards in time")
        while True:
            if self._monitors:
                if self._run_monitored(until):
                    return
            elif self._run_fast(until):
                return

    def _run_fast(self, until: Optional[int]) -> bool:
        """Monitor-free run loop; returns False to switch loops.

        The engine's hot path.  Each pass dispatches every timer due at
        the current time ``t``, then drains the ready deque, then advances
        the clock to the earliest remaining timer.  Nothing dispatched can
        push a timer at ``t`` (timer delays are strictly positive), so the
        run at ``t`` ends exactly when the heap's head moves past it.
        Dispatch counts are kept in locals and written back on exit.
        """
        ready = self._ready
        heap = self._heap
        monitors = self._monitors
        t = self._now
        events = callbacks = 0
        try:
            while True:
                while heap and heap[0][0] == t:
                    item = heappop(heap)[2]
                    if isinstance(item, Event):
                        events += 1
                        # Inlined Event._run_callbacks.
                        item._state = _PROCESSED
                        cb = item._cb0
                        if cb is not None:
                            item._cb0 = None
                            cb(item)
                        cbs = item._cbs
                        if cbs is not None:
                            item._cbs = None
                            for cb in cbs:
                                cb(item)
                    else:
                        callbacks += 1
                        item()
                while ready:
                    item = ready.popleft()
                    if isinstance(item, Event):
                        events += 1
                        item._state = _PROCESSED
                        cb = item._cb0
                        if cb is not None:
                            item._cb0 = None
                            cb(item)
                        cbs = item._cbs
                        if cbs is not None:
                            item._cbs = None
                            for cb in cbs:
                                cb(item)
                    else:
                        callbacks += 1
                        item()
                if monitors:
                    return False
                if not heap:
                    if until is not None:
                        self._now = until
                    return True
                t = heap[0][0]
                if until is not None and t > until:
                    self._now = until
                    return True
                if t < self._now:
                    raise SimulationError("time went backwards")
                self._now = t
        finally:
            self.events_dispatched += events
            self.callbacks_dispatched += callbacks

    def _run_monitored(self, until: Optional[int]) -> bool:
        """Run loop notifying monitors; returns False to switch loops.

        The fast loop's shape, one timestamp per pass, plus the hooks:
        ``on_advance(t)`` before anything at a new ``t`` dispatches (and
        on the final advance to ``until``), ``on_step(t, item)`` after
        each item.  The dispatch order is therefore the fast loop's.  A
        callback that detaches the last monitor lets the timers at ``t``
        finish (notifying whoever is still attached) and the loop returns
        before the next ready item.
        """
        ready = self._ready
        heap = self._heap
        monitors = self._monitors
        step_monitors = self._step_monitors
        advance_monitors = self._advance_monitors
        t = self._now
        events = callbacks = 0
        try:
            while True:
                while heap and heap[0][0] == t:
                    item = heappop(heap)[2]
                    if isinstance(item, Event):
                        events += 1
                        item._state = _PROCESSED
                        cb = item._cb0
                        if cb is not None:
                            item._cb0 = None
                            cb(item)
                        cbs = item._cbs
                        if cbs is not None:
                            item._cbs = None
                            for cb in cbs:
                                cb(item)
                    else:
                        callbacks += 1
                        item()
                    for monitor in step_monitors:
                        monitor.on_step(t, item)
                while ready:
                    if not monitors:
                        return False
                    item = ready.popleft()
                    if isinstance(item, Event):
                        events += 1
                        item._state = _PROCESSED
                        cb = item._cb0
                        if cb is not None:
                            item._cb0 = None
                            cb(item)
                        cbs = item._cbs
                        if cbs is not None:
                            item._cbs = None
                            for cb in cbs:
                                cb(item)
                    else:
                        callbacks += 1
                        item()
                    for monitor in step_monitors:
                        monitor.on_step(t, item)
                if not monitors:
                    return False
                if heap:
                    t = heap[0][0]
                    if until is None or t <= until:
                        if t < self._now:
                            raise SimulationError("time went backwards")
                        self._now = t
                        # Advance hooks fire before anything at t
                        # dispatches, so a timeline closing windows here
                        # sees only state produced strictly before t.
                        for monitor in advance_monitors:
                            monitor.on_advance(t)
                        continue
                if until is not None and until > self._now:
                    self._now = until
                    for monitor in advance_monitors:
                        monitor.on_advance(until)
                return True
        finally:
            self.events_dispatched += events
            self.callbacks_dispatched += callbacks

    def peek(self) -> Optional[int]:
        """Time of the next scheduled item, or None if none is pending."""
        if self._ready:
            return self._now
        heap = self._heap
        return heap[0][0] if heap else None


def _integer_delay(delay: Any) -> int:
    """``delay`` as an exact integer count of ns, or SimulationError.

    Only reached for a non-``int`` delay: a float would break the
    integer-nanosecond ordering contract, so anything without an exact
    ``__index__`` is refused rather than rounded.
    """
    try:
        return operator.index(delay)
    except TypeError:
        raise _not_integer_ns(delay) from None


def _not_integer_ns(value: Any, what: str = "delay") -> SimulationError:
    """The error for a delay or time that is not an integer count of ns."""
    return SimulationError(
        f"{what} must be an integer number of ns, got {value!r}")
