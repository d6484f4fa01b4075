"""Unit tests for the testbed builders and host machines."""

import pytest

from repro.cluster import (
    LoadGenHost,
    MODEL_NAMES,
    TestbedSpec,
    VmHostMachine,
    build_testbed,
)
from repro.hw import Nic
from repro.iomodels.costs import DEFAULT_COSTS
from repro.sim import Environment


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        build_testbed(TestbedSpec(model="xen", vms_per_host=1))


def test_bad_vm_count_rejected():
    with pytest.raises(ValueError):
        build_testbed(TestbedSpec(model="elvis", vms_per_host=0))
    with pytest.raises(ValueError):
        build_testbed(TestbedSpec(model="elvis", vms_per_host=2, sidecores=0))


@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_setup_has_expected_shape(model_name):
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=3))
    assert len(tb.vms) == 3
    assert len(tb.ports) == 3
    assert len(tb.clients) == 3
    assert tb.model_name == model_name
    # Every VM gets its own dedicated VMcore.
    vcpus = {vm.vcpu.name for vm in tb.vms}
    assert len(vcpus) == 3


def test_core_budgets_follow_paper():
    """N+1 cores for elvis/baseline/vrio; N for the optimum."""
    for model_name, service in (("elvis", 1), ("baseline", 1), ("vrio", 1),
                                ("optimum", 0)):
        tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=4))
        assert len(tb.service_cores) == service


def test_vrio_sidecores_live_on_iohost():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    assert tb.iohost is not None
    assert all(core.name.startswith("iohost/") for core in tb.service_cores)


def test_elvis_sidecores_live_on_vmhost():
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1))
    assert tb.iohost is None
    assert all(core.name.startswith("vmhost0/") for core in tb.service_cores)


def test_elvis_sidecores_poll_baseline_iocore_does_not():
    elvis = build_testbed(TestbedSpec(model="elvis", vms_per_host=1))
    baseline = build_testbed(TestbedSpec(model="baseline", vms_per_host=1))
    assert elvis.service_cores[0].poll_mode is True
    assert baseline.service_cores[0].poll_mode is False


def test_vmhost_clock_speeds_match_paper():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    assert tb.vms[0].vcpu.ghz == pytest.approx(2.2)
    assert tb.service_cores[0].ghz == pytest.approx(2.7)


def test_optimum_block_attach_raises():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    with pytest.raises(NotImplementedError):
        tb.attach_ramdisk(tb.vms[0])


def test_vmhost_core_budget_enforced():
    env = Environment()
    host = VmHostMachine(env, "h", DEFAULT_COSTS, core_budget=2)
    host.new_vm()
    host.new_vm()
    with pytest.raises(RuntimeError):
        host.new_vm()


def test_scalability_setup_shape():
    tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                   n_vmhosts=4, vms_per_host=2, sidecores=2))
    assert len(tb.vms) == 8
    assert len(tb.vmhosts) == 4
    assert len(tb.loadgens) == 4
    assert len(tb.service_cores) == 2
    # Each VMhost's VMs are distinct.
    assert len({vm.name for vm in tb.vms}) == 8


def test_scalability_setup_validation():
    with pytest.raises(ValueError):
        build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                  n_vmhosts=0))


def test_consolidation_setup_elvis_per_host_sidecores():
    tb = build_testbed(TestbedSpec(model="elvis", topology="consolidation",
                                   n_vmhosts=2, vms_per_host=5))
    assert len(tb.vms) == 10
    assert len(tb.service_cores) == 2
    assert len(tb.models) == 2  # one Elvis instance per VMhost


def test_consolidation_setup_vrio_shared_workers():
    tb = build_testbed(TestbedSpec(model="vrio", topology="consolidation",
                                   n_vmhosts=2, vms_per_host=5))
    assert len(tb.vms) == 10
    assert len(tb.service_cores) == 1
    assert len(tb.models) == 1  # one consolidated I/O hypervisor


def test_consolidation_setup_rejects_optimum():
    with pytest.raises(ValueError):
        build_testbed(TestbedSpec(model="optimum", topology="consolidation",
                                  n_vmhosts=2, vms_per_host=5))


def test_consolidation_block_attach_routes_to_right_model():
    tb = build_testbed(TestbedSpec(model="elvis", topology="consolidation",
                                   n_vmhosts=2, vms_per_host=1))
    h0 = tb.attach_ramdisk(tb.vms[0])
    h1 = tb.attach_ramdisk(tb.vms[1])
    assert h0.model is not h1.model  # separate per-host Elvis instances


def test_loadgen_numa_dilation_kicks_in_on_socket1():
    """Clients 1..3 run on socket 0; the 4th lands on socket 1 and pays the
    remote-DRAM penalty (Fig. 13a's artifact)."""
    env = Environment()
    nic = Nic(env, "lg/nic")
    lg = LoadGenHost(env, "lg", nic, DEFAULT_COSTS)
    endpoints = [lg.new_client_endpoint() for _ in range(4)]
    assert all(e.numa_dilation == 1.0 for e in endpoints[:3])
    assert endpoints[3].numa_dilation > 1.0


def test_loadgen_numa_can_be_disabled():
    env = Environment()
    nic = Nic(env, "lg/nic")
    lg = LoadGenHost(env, "lg", nic, DEFAULT_COSTS, model_numa=False)
    endpoints = [lg.new_client_endpoint() for _ in range(6)]
    assert all(e.numa_dilation == 1.0 for e in endpoints)


def test_loadgen_core0_reserved():
    env = Environment()
    nic = Nic(env, "lg/nic")
    lg = LoadGenHost(env, "lg", nic, DEFAULT_COSTS)
    e = lg.new_client_endpoint()
    assert not e.core.name.endswith("core0")


def test_deterministic_build():
    a = build_testbed(TestbedSpec(model="vrio", vms_per_host=2, seed=5))
    b = build_testbed(TestbedSpec(model="vrio", vms_per_host=2, seed=5))
    assert [v.name for v in a.vms] == [v.name for v in b.vms]
