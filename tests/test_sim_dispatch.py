"""The kernel's dispatch stream and its per-item cost, pinned.

Two guards on :mod:`repro.sim.engine` that the metric goldens do not
give directly:

* **Dispatch stream.** Every item the scheduler dispatches — its time,
  kind and name as the flight recorder describes it — is hashed for
  the ``apache_vrio`` scenario and for one run of each host-side model
  (the ``rr_*`` scenarios and ``filebench_baseline``).  ``sim.events`` in the goldens counts
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
  A second run over Elvis bounds the calls into ``repro/iomodels`` on
  the host-side datapath.
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
from repro.workloads import ApacheBench, NetperfRR

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
_SIM_DIR = _REPRO_DIR + "sim" + os.sep
_DATAPATH_DIRS = tuple(_REPRO_DIR + package + os.sep
                       for package in ("hw", "net", "iomodels", "interpose"))
_IOMODELS_DIR = _REPRO_DIR + "iomodels" + os.sep

# apache_vrio at seed 0: number of dispatched items and the SHA-256 of
# one "now source detail" line per item.  Any change to which items the
# scheduler sees, their order, kind or name changes these.
APACHE_VRIO_STEPS = 18_155
APACHE_VRIO_STREAM_SHA256 = (
    "f7207be9c477802b7345b87bb699d5c0c9125967d3b587c90c3c9cc468408d21")

# The same pin for the host-side models' scenarios at seed 0.
HOST_SIDE_STREAMS = {
    "rr_baseline": (17_067, "1036c1463b7479416a69e1c2aa201d37"
                            "7bff2dd753095b83f639b70149520f5e"),
    "rr_elvis": (20_758, "4d535652e9a11fe584ac5f72e247815a"
                         "096fdd44ac9094cfff494b049c6df255"),
    "rr_optimum": (17_154, "abe04a9a8e971d393d1ea94de3b77cee"
                           "ed0a3777eb9946d8cd914098f7371eb7"),
    "rr_swpt": (18_810, "087d6911f529e6f4817cb72c2dfe194d"
                        "e19ca142e5fd8bd7009ae590b4020dca"),
    "rr_nvme_pt": (17_154, "8036cb9628630f9541d08cbfb0cc17e3"
                           "73d1964fc1404c944590211ea48b679a"),
    "rr_flexbso": (21_347, "b0477437e3d630e143765b3ab3e8c027"
                           "91a94a4942daf51e27c04af6b2b68025"),
    "filebench_baseline": (11_986, "eed0091d2380d2e7aa3f9621f66b724f"
                                   "5adbe6f3ee3aa780f8d1bc988e9560a8"),
}

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
# Into repro/iomodels for the NetperfRR run over Elvis in
# _host_side_calls_per_item: 0.5018 with the six host-side models on one
# datapath whose ports spawn the guest-tx process directly (0.5186 with
# a _start_tx call per message).
HOST_IOMODELS_CALLS_PER_ITEM_MAX = 0.502


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


def _scenario_stream(name: str) -> _StreamDigest:
    monitors, patch = _record_environments(_StreamDigest)
    with patch:
        run_scenario(name, seed=0)
    assert len(monitors) == 1
    return monitors[0]


@pytest.fixture(scope="module")
def apache_vrio_stream() -> _StreamDigest:
    return _scenario_stream("apache_vrio")


def test_apache_vrio_dispatch_stream_pinned(apache_vrio_stream):
    stream = apache_vrio_stream
    assert (stream.steps, stream.hexdigest()) == (
        APACHE_VRIO_STEPS, APACHE_VRIO_STREAM_SHA256)


def test_apache_vrio_dispatches_one_event_class(apache_vrio_stream):
    # Timers and triggered events are exact Events, so the run loops'
    # slot accesses stay on CPython's per-type caches; only process
    # completions bring a second class.
    assert apache_vrio_stream.event_classes == {Event, Process}


@pytest.mark.parametrize("name", sorted(HOST_SIDE_STREAMS))
def test_host_side_dispatch_stream_pinned(name):
    stream = _scenario_stream(name)
    steps, sha = HOST_SIDE_STREAMS[name]
    assert (stream.steps, stream.hexdigest()) == (steps, sha)


def _profiled_run(tb, dirs: tuple) -> tuple:
    """Run ``tb`` for 2 ms on the unmonitored loop; per entry of
    ``dirs`` (a prefix or a tuple of prefixes), the Python calls into
    it per dispatched item, items counted by the kernel's own dispatch
    counters."""
    env = tb.env
    calls = [0] * len(dirs)

    def profile(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            for i, prefix in enumerate(dirs):
                if filename.startswith(prefix):
                    calls[i] += 1
                    break

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
    return tuple(count / steps for count in calls)


def _calls_per_item() -> tuple:
    """Calls into repro/sim, and into the datapath packages, per item:
    two ApacheBench clients over vRIO."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=2, seed=0))
    for i in range(2):
        ApacheBench(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                    warmup_ns=0)
    return _profiled_run(tb, (_SIM_DIR, _DATAPATH_DIRS))


def _host_side_calls_per_item() -> float:
    """Calls into repro/iomodels per item: two NetperfRR clients over
    Elvis."""
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=2, seed=0))
    for i in range(2):
        NetperfRR(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                  warmup_ns=0, rng=tb.rng.stream(f"rr-client-{i}"))
    return _profiled_run(tb, (_IOMODELS_DIR,))[0]


@pytest.fixture(scope="module")
def calls_per_item() -> tuple:
    return _calls_per_item()


def test_sim_calls_per_dispatched_item_bounded(calls_per_item):
    sim_per_item, _ = calls_per_item
    assert sim_per_item <= SIM_CALLS_PER_ITEM_MAX, sim_per_item


def test_datapath_calls_per_dispatched_item_bounded(calls_per_item):
    _, datapath_per_item = calls_per_item
    assert datapath_per_item <= DATAPATH_CALLS_PER_ITEM_MAX, datapath_per_item


def test_host_side_iomodels_calls_per_dispatched_item_bounded():
    per_item = _host_side_calls_per_item()
    assert per_item <= HOST_IOMODELS_CALLS_PER_ITEM_MAX, per_item
