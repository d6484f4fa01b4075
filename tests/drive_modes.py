"""Alternative ways to drive the one scheduler, for differential tests.

:class:`repro.sim.Environment` keeps one schedule (a ready deque plus a
heap of timers) but dispatches from it along three code paths: the
fast and monitored loops behind ``run()``, the ``run(until)`` stop and
resume logic between them, and ``step()``.  Each is its own copy of the
"timers at ``t``, then ready" order.  These context managers reroute
every ``Environment.run`` call made inside them — including the ones a
scenario or experiment makes internally — so the same program can be
replayed along a different path and its observables compared
byte-for-byte with a plain run.
"""

from contextlib import contextmanager
from typing import Iterator, Optional
from unittest import mock

from repro.sim import Environment

_run = Environment.run


def _run_sliced(env: Environment, until: Optional[int] = None) -> None:
    """``run(until)`` one timestamp at a time: each slice stops exactly on
    the next pending timestamp, so every call resumes a partly-drained
    schedule."""
    while True:
        due = env.peek()
        if due is None or (until is not None and due > until):
            break
        _run(env, due)
    _run(env, until)


def _run_stepped(env: Environment, until: Optional[int] = None) -> None:
    """``run(until)`` rebuilt on ``step()``; the closing ``run`` has nothing
    left at or before ``until`` and only moves the clock there."""
    while True:
        due = env.peek()
        if due is None or (until is not None and due > until):
            break
        env.step()
    _run(env, until)


DRIVE_MODES = {"sliced": _run_sliced, "stepped": _run_stepped}


@contextmanager
def drive_mode(name: str) -> Iterator[None]:
    """Route every ``Environment.run`` inside the block through ``name``."""
    with mock.patch.object(Environment, "run", DRIVE_MODES[name]):
        yield
