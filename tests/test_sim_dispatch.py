"""The kernel's dispatch stream and its per-item cost, pinned.

Two guards on :mod:`repro.sim.engine` that the metric goldens do not
give directly:

* **Dispatch stream.** Every item the scheduler dispatches — its time,
  kind and name as the flight recorder describes it — is hashed for
  the ``apache_vrio`` scenario.  ``sim.events`` in the goldens counts
  events apart from bare callbacks, and ``faults`` output embeds the
  flight recorder's dump, so a kernel change that reaches the same
  metrics through different items (a callback where an event was, a
  named function where a lambda was) must still fail here.  The same
  run checks that every dispatched event is exactly an ``Event`` or a
  ``Process``: timers are plain events, so the run loops see one class.
* **Per-item cost.** Python-level calls per dispatched item on a small
  fast-loop run, counted with ``sys.setprofile``: into ``repro/sim``
  (the kernel), and into the datapath packages ``repro/hw``,
  ``repro/net``, ``repro/iomodels`` and ``repro/interpose``.  The counts
  are deterministic, so a change that adds a call to the per-wake or
  per-message path fails tier-1 without any wall-clock measurement.
"""

import gc
import hashlib
import os
import sys
from unittest import mock

import pytest

import repro
from repro.cluster import TestbedSpec, build_testbed
from repro.sim import Environment, Event, Process, ms
from repro.telemetry.flight import _describe
from repro.testing import run_scenario
from repro.workloads import ApacheBench

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
_SIM_DIR = _REPRO_DIR + "sim" + os.sep
_DATAPATH_DIRS = tuple(_REPRO_DIR + package + os.sep
                       for package in ("hw", "net", "iomodels", "interpose"))

# apache_vrio at seed 0: number of dispatched items and the SHA-256 of
# one "now source detail" line per item.  Any change to which items the
# scheduler sees, their order, kind or name changes these.
APACHE_VRIO_STEPS = 18_155
APACHE_VRIO_STREAM_SHA256 = (
    "f7207be9c477802b7345b87bb699d5c0c9125967d3b587c90c3c9cc468408d21")

# Ceilings on Python calls per dispatched item for the ApacheBench run
# in _calls_per_item.  Lower them when a change removes calls; a change
# that adds one fails here.
#
# Into repro/sim: 4.208 with a finished process triggering itself
# inline rather than through Event.succeed (4.314 before; 8.78 when each
# wake went through _on_event, _resume, the ok, value and is_alive
# properties and add_callback).
SIM_CALLS_PER_ITEM_MAX = 4.209
# Into repro/{hw,net,iomodels,interpose}: 2.971 with fragment counts and
# zero-copy page counts in closed form and no generator for an empty
# interposer chain (3.044 before).
DATAPATH_CALLS_PER_ITEM_MAX = 2.972


class _StreamDigest:
    """Monitor hashing ``(now, *_describe(item))`` for every step, and
    collecting the exact classes of the dispatched events."""

    def __init__(self) -> None:
        self.steps = 0
        self._sha = hashlib.sha256()
        self.event_classes = set()

    def on_step(self, now, item) -> None:
        self.steps += 1
        source, detail = _describe(item)
        self._sha.update(f"{now} {source} {detail}\n".encode())
        if isinstance(item, Event):
            self.event_classes.add(type(item))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _record_environments(monitor_factory):
    """Patch ``Environment`` so every new one gets a fresh monitor."""
    monitors = []
    init = Environment.__init__

    def patched(env, *args, **kwargs):
        init(env, *args, **kwargs)
        monitor = monitor_factory()
        monitors.append(monitor)
        env.add_monitor(monitor)

    return monitors, mock.patch.object(Environment, "__init__", patched)


@pytest.fixture(scope="module")
def apache_vrio_stream() -> _StreamDigest:
    monitors, patch = _record_environments(_StreamDigest)
    with patch:
        run_scenario("apache_vrio", seed=0)
    assert len(monitors) == 1
    return monitors[0]


def test_apache_vrio_dispatch_stream_pinned(apache_vrio_stream):
    stream = apache_vrio_stream
    assert (stream.steps, stream.hexdigest()) == (
        APACHE_VRIO_STEPS, APACHE_VRIO_STREAM_SHA256)


def test_apache_vrio_dispatches_one_event_class(apache_vrio_stream):
    # Timers and triggered events are exact Events, so the run loops'
    # slot accesses stay on CPython's per-type caches; only process
    # completions bring a second class.
    assert apache_vrio_stream.event_classes == {Event, Process}


def _calls_per_item() -> tuple:
    """Python calls into repro/sim, and into the datapath packages, per
    dispatched item: two ApacheBench clients over vRIO for 2 ms on the
    unmonitored loop, items counted by the kernel's own dispatch
    counters."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=2, seed=0))
    for i in range(2):
        ApacheBench(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                    warmup_ns=0)
    env = tb.env
    sim_calls = datapath_calls = 0

    def profile(frame, event, arg):
        nonlocal sim_calls, datapath_calls
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(_SIM_DIR):
                sim_calls += 1
            elif filename.startswith(_DATAPATH_DIRS):
                datapath_calls += 1

    # Collecting garbage closes abandoned generators, such as the
    # processes of earlier testbeds, which the profile would count as
    # calls; so collect before the run and not during it.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        env.run(until=ms(2))
    finally:
        sys.setprofile(None)
        gc.enable()
    steps = env.events_dispatched + env.callbacks_dispatched
    assert steps > 1000
    return sim_calls / steps, datapath_calls / steps


@pytest.fixture(scope="module")
def calls_per_item() -> tuple:
    return _calls_per_item()


def test_sim_calls_per_dispatched_item_bounded(calls_per_item):
    sim_per_item, _ = calls_per_item
    assert sim_per_item <= SIM_CALLS_PER_ITEM_MAX, sim_per_item


def test_datapath_calls_per_dispatched_item_bounded(calls_per_item):
    _, datapath_per_item = calls_per_item
    assert datapath_per_item <= DATAPATH_CALLS_PER_ITEM_MAX, datapath_per_item
