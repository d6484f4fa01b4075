"""Per-model unit tests: attachment rules, assignment policies, internal
invariants."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.guest import Vm
from repro.hw import Core, Nic
from repro.iomodels import (
    ElvisModel,
    OptimumModel,
    VrioModel,
)
from repro.sim import Environment, ms
from repro.telemetry import MetricsRegistry


def test_optimum_assigns_unique_vfs():
    env = Environment()
    model = OptimumModel(env)
    nic = Nic(env, "nic")
    vms = [Vm(env, f"vm{i}", Core(env, f"c{i}", 2.2)) for i in range(3)]
    ports = [model.attach_vm(vm, nic) for vm in vms]
    macs = {port.mac for port in ports}
    assert len(macs) == 3
    assert len(nic.functions) == 3


def test_optimum_double_attach_rejected():
    env = Environment()
    model = OptimumModel(env)
    nic = Nic(env, "nic")
    vm = Vm(env, "vm0", Core(env, "c0", 2.2))
    model.attach_vm(vm, nic)
    with pytest.raises(ValueError):
        model.attach_vm(vm, nic)


def test_elvis_requires_sidecores():
    env = Environment()
    with pytest.raises(ValueError):
        ElvisModel(env, Nic(env, "nic"), [])


def test_elvis_round_robins_vms_across_sidecores():
    env = Environment()
    sidecores = [Core(env, f"sc{i}", 2.2, poll_mode=True) for i in range(2)]
    model = ElvisModel(env, Nic(env, "nic"), sidecores)
    vms = [Vm(env, f"vm{i}", Core(env, f"c{i}", 2.2)) for i in range(4)]
    for vm in vms:
        model.attach_vm(vm)
    assignments = [model.sidecore_for(vm) for vm in vms]
    assert assignments == [sidecores[0], sidecores[1],
                           sidecores[0], sidecores[1]]


def test_elvis_explicit_sidecore_pinning():
    env = Environment()
    sidecores = [Core(env, f"sc{i}", 2.2, poll_mode=True) for i in range(2)]
    model = ElvisModel(env, Nic(env, "nic"), sidecores)
    vm = Vm(env, "vm0", Core(env, "c0", 2.2))
    model.attach_vm(vm, sidecore=sidecores[1])
    assert model.sidecore_for(vm) is sidecores[1]


def _txq_kick_counts(model_name):
    """(kicks, kicks suppressed) of one message posted to the VM's tx
    ring, as the model's telemetry reports them."""
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=1))
    registry = MetricsRegistry()
    tb.model.register_telemetry(registry.namespace("model"))
    tb.ports[0].send(tb.clients[0].mac, 100)
    tb.env.run(until=ms(1))
    snapshot = registry.snapshot()
    prefix = f"model.txq.{tb.vms[0].name}."
    return snapshot[prefix + "kicks"], snapshot[prefix + "kicks_suppressed"]


def test_elvis_rings_have_kicks_suppressed():
    assert _txq_kick_counts("elvis") == (0, 1)


def test_baseline_rings_keep_kicks():
    assert _txq_kick_counts("baseline") == (1, 0)


def test_baseline_port_carries_dilation():
    tb = build_testbed(TestbedSpec(model="baseline", vms_per_host=1))
    assert tb.ports[0].app_dilation > 1.0
    tb2 = build_testbed(TestbedSpec(model="elvis", vms_per_host=1))
    assert tb2.ports[0].app_dilation == 1.0


def test_block_attach_requires_net_attach_first():
    env = Environment()
    model = ElvisModel(env, Nic(env, "nic"),
                       [Core(env, "sc", 2.2, poll_mode=True)])
    vm = Vm(env, "vm0", Core(env, "c0", 2.2))
    from repro.hw import make_ramdisk
    with pytest.raises(ValueError):
        model.attach_block_device(vm, make_ramdisk(env))


def test_vrio_requires_workers():
    env = Environment()
    with pytest.raises(ValueError):
        VrioModel(env, [])


def test_vrio_names_by_poll_mode():
    env = Environment()
    workers = [Core(env, "w", 2.7, poll_mode=True)]
    assert VrioModel(env, workers, poll=True).name == "vrio"
    assert VrioModel(env, [Core(env, "w2", 2.7)], poll=False).name == "vrio_nopoll"


def test_vrio_t_and_f_are_distinct_addresses():
    """§4.6: the transport (T) and front-end (F) interfaces have different
    MACs — the split that enables migration."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    client = tb.model.client_of(tb.vms[0])
    assert client.t_vf.mac is not client.f_fn.mac
    assert tb.ports[0].mac is client.f_fn.mac  # F is the public identity


def test_vrio_double_attach_rejected():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    client = tb.model.client_of(tb.vms[0])
    with pytest.raises(ValueError):
        tb.model.attach_vm(tb.vms[0], client.channel, tb.iohost.nics[1])


def test_vrio_rejects_bad_steering_policy():
    env = Environment()
    with pytest.raises(ValueError):
        VrioModel(env, [Core(env, "w", 2.7)], steering_policy="zigzag")


def test_vrio_block_devices_get_unique_ids():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1,
                                   with_clients=False))
    h1 = tb.attach_ramdisk(tb.vms[0])
    h2 = tb.attach_ramdisk(tb.vms[0])
    assert h1.device_id != h2.device_id
    client = tb.model.client_of(tb.vms[0])
    assert len(client.devices) == 2
    # One reliability channel per client, shared by its devices.
    assert client.reliable is not None


def test_message_validation():
    from repro.iomodels import NetMessage
    from repro.net import MacAddress
    with pytest.raises(ValueError):
        NetMessage(src=MacAddress(), dst=MacAddress(), size_bytes=0)


def test_message_wire_bytes_accounts_fragment_headers():
    from repro.iomodels import message_wire_bytes
    assert message_wire_bytes(100, mtu=1500) == 100
    # 3000 B -> 2 fragments -> one extra Ethernet header on the wire.
    assert message_wire_bytes(3000, mtu=1500) == 3000 + 18
