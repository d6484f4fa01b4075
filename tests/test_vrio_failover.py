"""Integration tests for §4.6 fault tolerance: IOhost failure, switch
re-steering, fallback to local virtio, and block-device fate."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.hw import BlockRequest, make_ramdisk
from repro.iomodels.vrio import (
    BlockDeviceError,
    fail_iohost,
    fall_back_to_local_virtio,
)
from repro.sim import ms, seconds


def echo(port, client):
    received = []
    port.receive_handler = lambda m: port.send(m.src, 64, meta=dict(m.meta))
    client.receive_handler = lambda m: received.append(m)
    return received


def test_switched_setup_works_before_failure():
    tb = build_testbed(TestbedSpec(model="vrio", topology="switched"))
    received = echo(tb.ports[0], tb.clients[0])
    tb.clients[0].send(tb.ports[0].mac, 64, meta={"phase": "pre"})
    tb.env.run(until=ms(5))
    assert len(received) == 1
    # Traffic flowed through the rack switch.
    assert tb.switch.forwarded.value >= 2


def test_iohost_failure_blackholes_traffic():
    tb = build_testbed(TestbedSpec(model="vrio", topology="switched"))
    received = echo(tb.ports[0], tb.clients[0])
    fail_iohost(tb.model)
    tb.clients[0].send(tb.ports[0].mac, 64)
    tb.env.run(until=ms(10))
    assert received == []


def test_fallback_restores_network_reachability():
    """After the IOhost dies, the switch re-steers the F address to the
    VMhost and the client is served by local virtio (§4.6)."""
    tb = build_testbed(TestbedSpec(model="vrio", topology="switched"))
    received = echo(tb.ports[0], tb.clients[0])
    client_state = tb.model.client_of(tb.vms[0])

    def scenario(env):
        tb.clients[0].send(tb.ports[0].mac, 64, meta={"phase": "pre"})
        yield env.timeout(ms(3))
        fail_iohost(tb.model)
        fall_back_to_local_virtio(
            tb.model, client_state, tb.vmhost_fallback_nic,
            tb.fallback_io_core, switch=tb.switch,
            switch_port=tb.switch_ports["vmhost"])
        tb.clients[0].send(tb.ports[0].mac, 64, meta={"phase": "post"})
        yield env.timeout(ms(5))

    tb.env.process(scenario(tb.env))
    tb.env.run(until=ms(20))
    phases = [m.meta["phase"] for m in received]
    assert phases == ["pre", "post"]
    assert client_state.transport_mode == "virtio-local"


def test_fallback_keeps_f_address():
    tb = build_testbed(TestbedSpec(model="vrio", topology="switched"))
    port = tb.ports[0]
    mac_before = port.mac
    fail_iohost(tb.model)
    fall_back_to_local_virtio(
        tb.model, tb.model.client_of(tb.vms[0]), tb.vmhost_fallback_nic,
        tb.fallback_io_core, switch=tb.switch,
        switch_port=tb.switch_ports["vmhost"])
    assert port.mac is mac_before


def test_fallback_pays_trap_and_emulate_costs():
    """The fallback is regular virtio: exits and injections return."""
    tb = build_testbed(TestbedSpec(model="vrio", topology="switched"))
    received = echo(tb.ports[0], tb.clients[0])
    fail_iohost(tb.model)
    fall_back_to_local_virtio(
        tb.model, tb.model.client_of(tb.vms[0]), tb.vmhost_fallback_nic,
        tb.fallback_io_core, switch=tb.switch,
        switch_port=tb.switch_ports["vmhost"])
    tb.clients[0].send(tb.ports[0].mac, 64)
    tb.env.run(until=ms(10))
    assert len(received) == 1
    assert tb.stats.exits.value > 0
    assert tb.stats.injections.value > 0


def test_fallback_requires_switch_port_when_switching():
    tb = build_testbed(TestbedSpec(model="vrio", topology="switched"))
    with pytest.raises(ValueError):
        fall_back_to_local_virtio(
            tb.model, tb.model.client_of(tb.vms[0]), tb.vmhost_fallback_nic,
            tb.fallback_io_core, switch=tb.switch, switch_port=None)


def test_iohost_exclusive_block_device_is_lost():
    """Storage residing exclusively on the dead IOhost fails like a lost
    local drive: requests exhaust their retransmissions."""
    costs = None
    from repro.iomodels.costs import DEFAULT_COSTS
    costs = DEFAULT_COSTS.copy(blk_initial_timeout_ns=ms(1),
                               blk_max_retransmissions=2)
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1,
                                   with_clients=False, costs=costs))
    handle = tb.attach_ramdisk(tb.vms[0])
    fail_iohost(tb.model)
    outcome = []

    def proc(env):
        try:
            yield handle.submit(BlockRequest(op="read", sector=0,
                                             size_bytes=4096))
            outcome.append("ok")
        except BlockDeviceError:
            outcome.append("lost")

    tb.env.process(proc(tb.env))
    tb.env.run(until=seconds(1))
    assert outcome == ["lost"]


def test_replica_backed_block_device_recovers():
    """With distributed-storage backing, the fallback re-attaches a local
    replica and block I/O continues."""
    tb = build_testbed(TestbedSpec(model="vrio", topology="switched"))
    tb.attach_ramdisk(tb.vms[0])
    client_state = tb.model.client_of(tb.vms[0])
    fail_iohost(tb.model)
    replica = make_ramdisk(tb.env, "replica")
    fall_back_to_local_virtio(
        tb.model, client_state, tb.vmhost_fallback_nic,
        tb.fallback_io_core, switch=tb.switch,
        switch_port=tb.switch_ports["vmhost"], replica_device=replica)
    done = []

    def proc(env):
        yield client_state.local_block_handle.submit(
            BlockRequest(op="write", sector=0, size_bytes=4096))
        done.append("ok")

    tb.env.process(proc(tb.env))
    tb.env.run(until=ms(20))
    assert done == ["ok"]
    assert replica.writes.value == 1
