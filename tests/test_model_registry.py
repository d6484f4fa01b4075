"""The I/O-model registry (PR 9): catalog, capability filters, shims.

The redesign's contract has three legs:

1. the registry rejects bad registrations (duplicates, consolidation
   claims without a builder) and unknown lookups list the valid ids;
2. capability filters select the right casts, in the right historical
   orders;
3. every derived experiment tuple, restricted to the pre-registry five
   models, reproduces the old hand-written tuple byte-for-byte — the
   redesign changed where the lists come from, not what they said.

Per-model behavior of the three new models (Table-3 event counts, the
swpt IOhost-crash no-op) is pinned here too; their bit-determinism and
golden fingerprints ride the scenario-parametrized suites like every
other model.
"""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.cluster.testbed import MODEL_NAMES
from repro.experiments.block_experiments import FIG14_MODELS
from repro.experiments.latency_experiments import FIG7_MODELS, TAB4_MODELS
from repro.experiments.tab03_events import MODEL_ORDER
from repro.experiments.throughput_experiments import FIG5_MODELS, FIG9_MODELS
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw import make_ramdisk
from repro.hw.storage import BlockRequest
from repro.interpose import AesEncryption
from repro.iomodels import BlockDeviceError, HostBlockHandle, HostModel
from repro.iomodels.registry import (
    Capabilities,
    ModelInfo,
    all_models,
    filter_models,
    get_model,
    model_names,
    register_model,
)
from repro.sim import ms

PAPER_FIVE = ("baseline", "elvis", "optimum", "vrio", "vrio_nopoll")
NEW_MODELS = ("flexbso", "nvme_pt", "swpt")


def _restrict(derived, allowed):
    return tuple(name for name in derived if name in allowed)


# ---------------------------------------------------------------------------
# Registration contract.
# ---------------------------------------------------------------------------

def test_catalog_is_paper_five_plus_roadmap_three():
    assert model_names() == tuple(sorted(PAPER_FIVE + NEW_MODELS))


def test_duplicate_name_rejected():
    clone = ModelInfo(name="vrio", description="an impostor",
                      capabilities=Capabilities(),
                      build_simple=lambda ctx: None)
    with pytest.raises(ValueError, match="duplicate I/O model name 'vrio'"):
        register_model(clone)


def test_consolidation_claim_without_builder_rejected():
    claim = ModelInfo(
        name="zz_unbuildable", description="claims what it cannot build",
        capabilities=Capabilities(topologies=("simple", "consolidation")),
        build_simple=lambda ctx: None)
    with pytest.raises(ValueError, match="no consolidation builder"):
        register_model(claim)
    assert "zz_unbuildable" not in model_names()


def test_unknown_model_error_lists_every_valid_id():
    with pytest.raises(ValueError) as err:
        get_model("xen")
    message = str(err.value)
    assert "unknown model 'xen'" in message
    for name in model_names():
        assert name in message


def test_every_model_has_description_and_builder():
    for info in all_models():
        assert info.description
        assert callable(info.build_simple)
        if info.capabilities.consolidation:
            assert callable(info.build_consolidation)


# ---------------------------------------------------------------------------
# Capability filtering.
# ---------------------------------------------------------------------------

def test_capability_filters_select_the_right_casts():
    assert "optimum" not in filter_models(block=True)
    assert filter_models(ablation=True) == ("vrio_nopoll",)
    assert set(filter_models(polling=True)) == {"elvis", "flexbso",
                                                "swpt", "vrio"}
    assert set(filter_models(exitless=False)) == {"baseline", "swpt"}
    for vrio_only in ("scalability", "switched", "racks"):
        assert filter_models(topology=vrio_only) == ("vrio",)
    assert set(filter_models(topology="consolidation")) == {
        "baseline", "elvis", "flexbso", "nvme_pt", "swpt", "vrio"}


def test_order_keys_sort_by_rank():
    assert filter_models(net=True, order="tab") == (
        "optimum", "vrio", "elvis", "vrio_nopoll", "baseline",
        "nvme_pt", "flexbso", "swpt")
    assert filter_models(net=True, order="throughput") == (
        "optimum", "elvis", "vrio", "vrio_nopoll", "baseline",
        "nvme_pt", "flexbso", "swpt")


def test_unknown_order_rejected():
    with pytest.raises(ValueError, match="unknown order"):
        filter_models(order="alphabetical_but_wrong")


# ---------------------------------------------------------------------------
# Shim equality: derived tuples restricted to the pre-registry members
# must equal the old hand-written tuples exactly.
# ---------------------------------------------------------------------------

def test_model_names_restricts_to_old_tuple():
    assert _restrict(MODEL_NAMES, PAPER_FIVE) == PAPER_FIVE


def test_tab03_and_fig5_order_restricts_to_old_tuple():
    old = ("optimum", "vrio", "elvis", "vrio_nopoll", "baseline")
    assert _restrict(MODEL_ORDER, PAPER_FIVE) == old
    assert _restrict(FIG5_MODELS, PAPER_FIVE) == old


def test_fig9_restricts_to_old_tuple_plus_documented_ablation():
    # The pre-registry FIG9_MODELS was the 4-way headline cast.  The
    # redesign deliberately added vrio_nopoll (the registry's net filter
    # keeps the ablation row; tab03/fig9 are the 8-way acceptance
    # artifacts) — minus that one documented addition, the restriction
    # is byte-identical.
    old = ("optimum", "elvis", "vrio", "baseline")
    assert "vrio_nopoll" in FIG9_MODELS
    assert _restrict(FIG9_MODELS, old) == old


def test_fig7_and_tab4_restrict_to_old_tuples():
    assert _restrict(FIG7_MODELS, PAPER_FIVE) == (
        "baseline", "vrio", "elvis", "optimum")
    assert _restrict(TAB4_MODELS, PAPER_FIVE) == (
        "optimum", "elvis", "vrio")


def test_fig14_restricts_to_old_tuple():
    assert _restrict(FIG14_MODELS, PAPER_FIVE) == (
        "elvis", "vrio", "baseline")


# ---------------------------------------------------------------------------
# Table-3 event-count sanity for the new models.
# ---------------------------------------------------------------------------

def _tab03_rows():
    from repro.experiments.tab03_events import run_tab03
    return run_tab03(models=("optimum", "baseline") + NEW_MODELS)


def test_new_model_event_counts_sit_between_optimum_and_baseline():
    rows = _tab03_rows()
    optimum, baseline = rows["optimum"]["sum"], rows["baseline"]["sum"]
    assert optimum == 2 and baseline == 9
    for name in NEW_MODELS:
        assert optimum <= rows[name]["sum"] < baseline, name


def test_passthrough_models_match_the_optimum_event_profile():
    rows = _tab03_rows()
    for name in ("nvme_pt", "flexbso"):
        assert rows[name] == rows["optimum"], name


def test_swpt_pays_exits_and_injections_but_no_host_interrupts():
    row = _tab03_rows()["swpt"]
    assert row["exits"] == 2
    assert row["injections"] == 2
    assert row["guest_interrupts"] == 2
    assert row["host_interrupts"] == 0
    assert row["iohost_interrupts"] == 0


# ---------------------------------------------------------------------------
# Host-side declarations against the registry: one set of facts.
# ---------------------------------------------------------------------------

HOST_SIDE = ("baseline", "elvis", "flexbso", "nvme_pt", "optimum", "swpt")


def test_host_side_models_are_every_local_model():
    assert HOST_SIDE == tuple(
        name for name in model_names() if not name.startswith("vrio"))


# (polling, exitless) per model, written out: the registry derives both
# from the declaration, so re-deriving them here would test nothing.
HOST_POLLING_EXITLESS = {
    "baseline": (False, False), "elvis": (True, True),
    "flexbso": (True, True), "nvme_pt": (False, True),
    "optimum": (False, True), "swpt": (True, False),
}


@pytest.mark.parametrize("name", HOST_SIDE)
def test_host_model_declaration_matches_capabilities(name):
    """A model's Table-3 declaration (placement, notification, kick)
    yields its registered capabilities, and what it claims matches what
    its interposer and block hooks do."""
    caps = get_model(name).capabilities
    tb = build_testbed(TestbedSpec(model=name, with_clients=False))
    model = tb.model
    assert isinstance(model, HostModel) and model.name == name
    assert (caps.polling, caps.exitless) == HOST_POLLING_EXITLESS[name]
    try:
        model.add_interposer(AesEncryption())
        interposes = True
    except NotImplementedError:
        interposes = False
    assert interposes == model.interposable
    try:
        handle = model.attach_block_device(tb.vms[0], make_ramdisk(tb.env))
    except NotImplementedError:
        handle = None
    assert isinstance(handle, HostBlockHandle) == caps.block


@pytest.mark.parametrize("name", ("baseline", "elvis", "swpt"))
def test_host_side_models_fail_errored_block_completions(name):
    """No host-side back end retries a medium error (only vRIO does,
    §4.5): like virtio-blk's VIRTIO_BLK_S_IOERR, the guest's completion
    fails."""
    tb = build_testbed(TestbedSpec(model=name, with_clients=False))
    device = make_ramdisk(tb.env, name="errors")
    handle = tb.model.attach_block_device(tb.vms[0], device)
    device.set_error_window(ms(1))
    outcomes = []

    def reader():
        sector = 0
        while True:
            request = BlockRequest(op="read", sector=sector, size_bytes=4096)
            sector += 8
            try:
                yield handle.submit(request)
                outcomes.append((request, True))
            except BlockDeviceError:
                outcomes.append((request, False))

    tb.env.process(reader())
    tb.env.run(until=ms(3))
    errored = [ok for request, ok in outcomes
               if request.meta.get("device_error")]
    assert errored and not any(errored)
    assert any(ok for _request, ok in outcomes)


# ---------------------------------------------------------------------------
# swpt + iohost_crash: a documented no-op, not a crash.
# ---------------------------------------------------------------------------

def test_swpt_iohost_crash_is_a_documented_noop():
    # swpt has no IOhost (the polling thread lives on the VMhost), so the
    # vRIO-specific crash injector records why it had nothing to do and
    # the run proceeds unharmed.
    testbed = build_testbed(TestbedSpec(
        model="swpt", topology="simple", with_clients=False,
        fault_plan=FaultPlan(faults=(
            FaultSpec(kind="iohost_crash", at_ns=ms(1)),))))
    handle = testbed.attach_ramdisk(testbed.vms[0])
    from repro.hw.storage import BlockRequest
    done = {"count": 0}

    def stream():
        while True:
            request = BlockRequest(op="read", sector=0, size_bytes=4096)
            yield handle.submit(request)
            done["count"] += 1

    testbed.env.process(stream(), name="swpt-blk-probe")
    testbed.env.run(until=ms(3))
    record = testbed.fault_injector.records[0]
    assert record.detail == "no vRIO model to crash"
    assert not record.unrecovered
    assert done["count"] > 0
