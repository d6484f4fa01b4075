"""Tests for dynamic sidecore allocation and the paper's two limitations."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.guest import GuestScheduler
from repro.hw import Core
from repro.iomodels.dynamic import DynamicSidecoreAllocator
from repro.sim import ms
from repro.workloads import FilebenchRandomIO, Memslap


def make_dynamic_setup(n_vms, spare=1):
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=n_vms))
    spares = [Core(tb.env, f"vmhost0/spare{i}", tb.costs.vmhost_ghz,
                   poll_mode=True,
                   poll_dispatch_ns=tb.costs.poll_dispatch_ns)
              for i in range(spare)]
    allocator = DynamicSidecoreAllocator(tb.env, tb.model, spares,
                                         epoch_ns=ms(2))
    return tb, allocator


def test_threshold_validation():
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1))
    with pytest.raises(ValueError):
        DynamicSidecoreAllocator(tb.env, tb.model, [], grow_threshold=0.2,
                                 shrink_threshold=0.5)


def test_idle_load_does_not_grow():
    tb, allocator = make_dynamic_setup(1)
    tb.env.run(until=ms(20))
    assert allocator.active_sidecores == 1
    assert allocator.grow_events.value == 0


def test_heavy_load_grows_sidecores():
    tb, allocator = make_dynamic_setup(7)
    workloads = [Memslap(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                         warmup_ns=ms(1)) for i in range(7)]
    tb.env.run(until=ms(30))
    assert allocator.grow_events.value >= 1
    assert allocator.active_sidecores == 2


def test_growth_improves_throughput():
    def tps(dynamic):
        tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=7))
        if dynamic:
            spares = [Core(tb.env, "vmhost0/spare0", tb.costs.vmhost_ghz,
                           poll_mode=True,
                           poll_dispatch_ns=tb.costs.poll_dispatch_ns)]
            DynamicSidecoreAllocator(tb.env, tb.model, spares,
                                     epoch_ns=ms(2))
        workloads = [Memslap(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                             warmup_ns=ms(5)) for i in range(7)]
        tb.env.run(until=ms(30))
        return sum(w.throughput_tps() for w in workloads)

    assert tps(dynamic=True) > 1.2 * tps(dynamic=False)


def test_load_drop_shrinks_back():
    tb, allocator = make_dynamic_setup(7)
    workloads = [Memslap(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                         warmup_ns=ms(1)) for i in range(7)]
    tb.env.run(until=ms(30))
    assert allocator.active_sidecores == 2
    # Stop the load; utilization collapses and the core is returned.
    for w in workloads:
        for port in (w.port,):
            port.receive_handler = lambda m: None  # stop echoing
    tb.env.run(until=tb.env.now + ms(20))
    assert allocator.shrink_events.value >= 1
    assert allocator.active_sidecores == 1


def test_limitation_discreteness():
    """Paper limitation #1: allocation is whole cores — a half-loaded
    sidecore still holds (and a polling one still burns) a full core."""
    tb, allocator = make_dynamic_setup(2)
    [Memslap(tb.env, tb.clients[i], tb.ports[i], tb.costs, warmup_ns=ms(1),
             concurrency=2) for i in range(2)]
    tb.env.run(until=ms(30))
    sidecore = tb.model.sidecores[0]
    useful = sidecore.util.useful_fraction()
    busy = sidecore.util.busy_fraction()
    assert useful < 0.8            # fractional need...
    assert busy > 0.99             # ...whole polling core burned anyway
    assert allocator.active_sidecores == 1


def test_limitation_cannot_cross_server_boundary():
    """Paper limitation #2: dynamic allocation is irrelevant when the
    aggregate need exceeds one server — spare cores on an idle host
    cannot serve a saturated one, whereas vRIO's consolidated workers can
    (the Fig. 16b experiment proves the latter)."""
    tb, allocator = make_dynamic_setup(7, spare=0)  # no local spares left
    [Memslap(tb.env, tb.clients[i], tb.ports[i], tb.costs, warmup_ns=ms(1))
     for i in range(7)]
    tb.env.run(until=ms(30))
    # Saturated, wants to grow, but nothing local to grab.
    assert allocator.grow_events.value == 0
    assert allocator.active_sidecores == 1
    assert tb.model.sidecores[0].util.useful_fraction() > 0.9
