"""Integration tests for vRIO's §4.6 features: live migration, transport
switching, device control plane, bare-metal clients, hypervisor
independence."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.hw import Core, Link, Nic, make_ramdisk
from repro.iomodels.vrio import ControlCommand, live_migrate, switch_transport
from repro.sim import ms


def echo_setup(tb, idx=0):
    port, client = tb.ports[idx], tb.clients[idx]
    received = []
    port.receive_handler = lambda m: port.send(m.src, 64, meta=dict(m.meta))
    client.receive_handler = lambda m: received.append(m)
    return port, client, received


# -- transport switching (Tsriov <-> Tvirtio) --------------------------------

def test_virtio_transport_still_works():
    """The migration fallback Tvirtio must carry traffic correctly, just
    with trap-and-emulate costs."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    client_state = tb.model.client_of(tb.vms[0])
    switch_transport(client_state, "virtio")
    port, client, received = echo_setup(tb)
    for i in range(5):
        client.send(port.mac, 64, meta={"seq": i})
    tb.env.run(until=ms(10))
    assert len(received) == 5
    # Tvirtio pays exits and injected interrupts.
    assert tb.stats.exits.value > 0
    assert tb.stats.injections.value > 0


def test_sriov_transport_is_exitless():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    port, client, received = echo_setup(tb)
    for i in range(5):
        client.send(port.mac, 64, meta={"seq": i})
    tb.env.run(until=ms(10))
    assert len(received) == 5
    assert tb.stats.exits.value == 0


def test_virtio_transport_slower_than_sriov():
    def latency(mode):
        tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
        switch_transport(tb.model.client_of(tb.vms[0]), mode)
        port, client, received = echo_setup(tb)
        times = []
        client.receive_handler = lambda m: times.append(tb.env.now)
        client.send(port.mac, 64)
        tb.env.run(until=ms(5))
        return times[0]

    assert latency("virtio") > latency("sriov")


def test_switch_transport_rejects_unknown_mode():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    with pytest.raises(ValueError):
        switch_transport(tb.model.client_of(tb.vms[0]), "teleport")


# -- live migration -----------------------------------------------------------

def test_live_migration_between_vmhosts():
    """A VM migrates between two VMhosts sharing the IOhost; traffic keeps
    flowing afterwards and the F address never changes."""
    tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                   n_vmhosts=2))
    model = tb.model
    client_state = model.client_of(tb.vms[0])
    target_channel = model.client_of(tb.vms[1]).channel
    port, client, received = echo_setup(tb, idx=0)
    mac_before = port.mac

    def scenario(env):
        client.send(port.mac, 64, meta={"phase": "before"})
        yield env.timeout(ms(2))
        yield live_migrate(model, client_state, target_channel,
                           downtime_ns=ms(5))
        client.send(port.mac, 64, meta={"phase": "after"})
        yield env.timeout(ms(5))

    tb.env.process(scenario(tb.env))
    tb.env.run(until=ms(30))
    phases = [m.meta["phase"] for m in received]
    assert "before" in phases and "after" in phases
    assert client_state.channel is target_channel
    assert client_state.transport_mode == "sriov"
    assert port.mac is mac_before  # F address is stable across migration


def test_migration_ends_on_new_channel_vf():
    tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                   n_vmhosts=2))
    model = tb.model
    client_state = model.client_of(tb.vms[0])
    old_vf = client_state.t_vf
    target_channel = model.client_of(tb.vms[1]).channel
    done = live_migrate(model, client_state, target_channel,
                        downtime_ns=ms(1))
    tb.env.run(until=ms(10))
    assert done.triggered
    assert client_state.t_vf is not old_vf
    assert old_vf.on_notify is None  # old VF detached


# -- control plane --------------------------------------------------------------

def test_control_create_block_device():
    """The I/O hypervisor creates a paravirtual device in the client
    (§4.1: device creation is done via the I/O hypervisor)."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    model = tb.model
    client_state = model.client_of(tb.vms[0])
    device = make_ramdisk(tb.env, "admin-disk")
    command = ControlCommand(action="create", device_type="blk",
                             device_id=9999, client_id=tb.vms[0].name,
                             params={"device": device})
    model.send_control(tb.vms[0].name, command)
    tb.env.run(until=ms(5))
    assert client_state.devices[9999] is device


def test_control_destroy_block_device():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    model = tb.model
    handle = tb.attach_ramdisk(tb.vms[0])
    device_id = handle.device_id
    client_state = model.client_of(tb.vms[0])
    assert device_id in client_state.devices
    model.send_control(tb.vms[0].name,
                       ControlCommand(action="destroy", device_type="blk",
                                      device_id=device_id,
                                      client_id=tb.vms[0].name))
    tb.env.run(until=ms(5))
    assert device_id not in client_state.devices


# -- heterogeneity / bare metal ---------------------------------------------------

def test_bare_metal_client_gets_service():
    """A non-virtualized OS with the vRIO driver is a first-class IOclient
    (§5 Heterogeneity: ESXi guest, KVM guest, and bare metal all work)."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    model = tb.model
    channel = model.client_of(tb.vms[0]).channel
    external_nic = tb.iohost.nics[1]  # the external NIC built by the testbed
    bare_core = Core(tb.env, "power710/core0", ghz=3.0)
    port = model.attach_bare_metal("bare-metal-0", bare_core, channel,
                                   external_nic)
    received = []
    port.receive_handler = lambda m: port.send(m.src, 64)
    client = tb.clients[0]
    client.receive_handler = lambda m: received.append(m)
    client.send(port.mac, 64)
    tb.env.run(until=ms(5))
    assert len(received) == 1
    # Bare metal pays no exits for its traffic.
    assert tb.stats.exits.value == 0


def test_bare_metal_faster_than_vm_on_same_path():
    """Without virtualization event costs, the bare-metal round trip is
    faster than the VM's on an identical channel."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    model = tb.model
    channel = model.client_of(tb.vms[0]).channel
    external_nic = tb.iohost.nics[1]
    bare_core = Core(tb.env, "bare/core0", ghz=2.2)  # same clock as the VM
    bare_port = model.attach_bare_metal("bare-0", bare_core, channel,
                                        external_nic)
    vm_port = tb.ports[0]
    client = tb.clients[0]

    def rtt(port):
        times = []
        port.receive_handler = lambda m: port.send(m.src, 64)
        client.receive_handler = lambda m: times.append(tb.env.now)
        start = tb.env.now
        client.send(port.mac, 64)
        tb.env.run(until=tb.env.now + ms(5))
        return times[0] - start

    assert rtt(bare_port) < rtt(vm_port)


def test_interposition_applies_to_bare_metal():
    """Services on the I/O hypervisor cannot be disabled by the IOclient -
    even a bare-metal one (§4.6)."""
    from repro.interpose import Meter
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    meter = Meter()
    tb.model.add_interposer(meter)
    model = tb.model
    channel = model.client_of(tb.vms[0]).channel
    bare_core = Core(tb.env, "bare/core0", ghz=2.2)
    port = model.attach_bare_metal("bare-0", bare_core, channel,
                                   tb.iohost.nics[1])
    port.receive_handler = lambda m: None
    tb.clients[0].send(port.mac, 2048)
    tb.env.run(until=ms(5))
    assert sum(meter.bytes_by_src.values()) == 2048
