"""The declarative testbed API: TestbedSpec and build_testbed."""

import re

import pytest

from repro.cluster import (
    TOPOLOGIES,
    TestbedSpec,
    build_testbed,
)
from repro.faults import FaultPlan, FaultSpec
from repro.hw.storage import make_ramdisk
from repro.iomodels import DEFAULT_COSTS
from repro.sim import ms
from repro.workloads import NetperfRR


def test_spec_defaults_build_the_simple_vrio_testbed():
    tb = build_testbed(TestbedSpec())
    assert tb.model_name == "vrio"
    assert len(tb.vms) == 1
    assert tb.iohost is not None
    assert tb.spec == TestbedSpec()


def test_spec_round_trips_through_dict():
    spec = TestbedSpec(
        model="vrio", topology="switched", vms_per_host=2, sidecores=2,
        channel_loss=0.01,
        costs=DEFAULT_COSTS.copy(blk_initial_timeout_ns=500_000),
        fault_plan=FaultPlan(faults=(
            FaultSpec(kind="link_down", at_ns=ms(5), duration_ns=ms(1),
                      target="channel"),)))
    assert TestbedSpec.from_dict(spec.to_dict()) == spec


def test_spec_copy_overrides_only_what_is_named():
    spec = TestbedSpec(model="elvis", vms_per_host=3)
    clone = spec.copy(seed=7)
    assert clone.seed == 7
    assert clone.model == "elvis" and clone.vms_per_host == 3
    assert spec.seed == 0  # original untouched


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_every_topology_builds(topology):
    spec = TestbedSpec(
        model="vrio", topology=topology,
        n_vmhosts=1 if topology in ("simple", "switched") else 2,
        vms_per_host=1)
    tb = build_testbed(spec)
    assert tb.vms and tb.spec.topology == topology


def test_unknown_topology_is_rejected():
    with pytest.raises(ValueError, match="topology"):
        build_testbed(TestbedSpec(topology="ring"))


def test_scalability_topology_is_vrio_only():
    with pytest.raises(ValueError, match="vRIO-only"):
        build_testbed(TestbedSpec(model="elvis", topology="scalability",
                                  n_vmhosts=2))


@pytest.mark.parametrize("mtu", [56, 0, -5])
def test_vrio_channel_mtu_must_fit_headers_and_a_byte(mtu):
    # 16 vRIO + 40 fake TCP/IP header bytes ride inside every fragment.
    with pytest.raises(ValueError, match="at least 57 bytes"):
        build_testbed(TestbedSpec(model="vrio", channel_mtu=mtu))


def test_smallest_vrio_channel_mtu_builds_and_runs():
    tb = build_testbed(TestbedSpec(model="vrio", channel_mtu=57))
    rr = NetperfRR(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                   warmup_ns=0)
    tb.env.run(until=ms(1))
    assert rr.transactions > 0


COUNT_FIELDS = ("n_vmhosts", "vms_per_host", "sidecores", "n_racks",
                "n_spines")


@pytest.mark.parametrize("value", [1.0, True, "2"])
@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_non_int_counts_rejected_before_building(field, value, monkeypatch):
    import repro.cluster.testbed as testbed_module

    # Any component construction would now fail with a TypeError.
    monkeypatch.setattr(testbed_module, "Environment", None)
    spec = TestbedSpec(model="vrio", topology="scalability", **{field: value})
    message = f"{field} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_testbed(spec)


def test_unknown_steering_policy_lists_the_valid_ones():
    message = "unknown steering policy 'rr'; valid policies: affinity, random"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_testbed(TestbedSpec(model="vrio", steering_policy="rr"))


def test_unified_attach_records_devices_and_routes_by_vm():
    tb = build_testbed(TestbedSpec(
        model="vrio", topology="consolidation", n_vmhosts=2, vms_per_host=1,
        with_clients=False))
    handles = [tb.attach_ramdisk(vm) for vm in tb.vms]
    assert len(tb.storage_devices) == 2
    assert all(h is not None for h in handles)


def test_attach_on_optimum_raises_not_implemented():
    tb = build_testbed(TestbedSpec(model="optimum", with_clients=False))
    with pytest.raises(NotImplementedError):
        tb.attach_block_device(tb.vms[0], make_ramdisk(tb.env, name="d"))


def test_fault_plan_in_spec_arms_an_injector():
    plan = FaultPlan(faults=(
        FaultSpec(kind="link_down", at_ns=ms(2), duration_ns=ms(1),
                  target="channel"),))
    tb = build_testbed(TestbedSpec(model="vrio", with_clients=False,
                                   fault_plan=plan))
    assert tb.fault_injector is not None
    assert len(tb.fault_injector.records) == 1
    tb.env.run(until=ms(4))
    record = tb.fault_injector.records[0]
    assert record.injected_ns == ms(2)
    assert record.cleared_ns == ms(3)


def test_specless_testbed_has_no_injector():
    assert build_testbed(TestbedSpec()).fault_injector is None
