"""Device consolidation (§3, §4.6): one IOhost-resident PCIe SSD shared
by VMs across multiple VMhosts through the paravirtual interface."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.hw import BlockRequest, make_pcie_ssd
from repro.sim import ms
from repro.workloads import FilebenchRandomIO


def test_one_ssd_shared_across_vmhosts():
    """VMs on different VMhosts all reach the same physical drive."""
    tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                   n_vmhosts=2, vms_per_host=2, sidecores=2))
    ssd = make_pcie_ssd(tb.env, "shared-sx300")
    handles = [tb.model.attach_block_device(vm, ssd) for vm in tb.vms]
    done = []

    def proc(env, handle, i):
        yield handle.submit(BlockRequest(op="read", sector=i * 1024,
                                         size_bytes=65536))
        done.append(i)

    for i, handle in enumerate(handles):
        tb.env.process(proc(tb.env, handle, i))
    tb.env.run(until=ms(20))
    assert sorted(done) == [0, 1, 2, 3]
    assert ssd.reads.value == 4


def test_shared_ssd_interposition_sees_all_clients():
    """Interposition at the IOhost covers every consumer of the shared
    drive — the property SANs lose (§3)."""
    from repro.interpose import Meter
    tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                   n_vmhosts=2, sidecores=2))
    meter = Meter()
    tb.model.add_interposer(meter)
    ssd = make_pcie_ssd(tb.env, "shared")
    handles = [tb.model.attach_block_device(vm, ssd) for vm in tb.vms]

    def proc(env, handle, i):
        yield handle.submit(BlockRequest(op="write", sector=i * 1024,
                                         size_bytes=4096))

    for i, handle in enumerate(handles):
        tb.env.process(proc(tb.env, handle, i))
    tb.env.run(until=ms(20))
    assert meter.packets_by_src  # block ops were metered
    assert sum(meter.packets_by_src.values()) >= 2


def test_shared_ssd_aggregate_bandwidth_bounded_by_media():
    """Many concurrent readers cannot exceed the drive's 21.6 Gbps."""
    tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                   n_vmhosts=4, vms_per_host=2, sidecores=4))
    ssd = make_pcie_ssd(tb.env, "shared")
    workloads = []
    for i, vm in enumerate(tb.vms):
        handle = tb.model.attach_block_device(vm, ssd)
        workloads.append(FilebenchRandomIO(
            tb.env, vm, handle, tb.rng.stream(f"c{i}"), tb.costs,
            readers=4, writers=0, io_bytes=256 * 1024,
            disk_bytes=ssd.capacity_bytes, warmup_ns=ms(4)))
    tb.env.run(until=ms(40))
    total_gbps = sum(w.ops_per_sec() * 256 * 1024 * 8 / 1e9
                     for w in workloads)
    assert 5 < total_gbps <= 22.5
    # The drive ran near its media limit: high queue occupancy.
    assert ssd.bytes_read.value > 0


def test_per_client_fairness_on_shared_drive():
    """Steering keys are per (client, device): no client starves."""
    tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                   n_vmhosts=2, vms_per_host=2, sidecores=2))
    ssd = make_pcie_ssd(tb.env, "shared")
    workloads = []
    for i, vm in enumerate(tb.vms):
        handle = tb.model.attach_block_device(vm, ssd)
        workloads.append(FilebenchRandomIO(
            tb.env, vm, handle, tb.rng.stream(f"c{i}"), tb.costs,
            readers=2, writers=0, io_bytes=65536,
            disk_bytes=ssd.capacity_bytes, warmup_ns=ms(4)))
    tb.env.run(until=ms(40))
    rates = [w.ops_per_sec() for w in workloads]
    assert min(rates) > 0
    assert max(rates) < 3 * min(rates)


def test_elvis_cannot_share_a_drive_across_hosts():
    """The contrast: an Elvis drive is captive to its own VMhost — a VM
    on another host has no path to it (separate model instances, separate
    hosts).  vRIO's consolidation is the paper's answer."""
    tb = build_testbed(TestbedSpec(model="elvis", topology="consolidation",
                                   n_vmhosts=2, vms_per_host=1))
    ssd = make_pcie_ssd(tb.env, "host0-local")
    # Attaching host 0's drive to host 1's VM would require host 1's
    # model instance — which has no access to host 0's hardware.  The
    # per-host attach maps make this structurally impossible:
    model0, model1 = tb.models
    assert model0 is not model1
    h0 = model0.attach_block_device(tb.vms[0], ssd)
    with pytest.raises(ValueError):
        model1.attach_block_device(tb.vms[0], ssd)  # wrong host's VM
