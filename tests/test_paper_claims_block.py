"""Paper claims for the block-device and consolidation experiments
(Figures 14, 15, 16)."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.experiments import run_fig16a, run_fig16b
from repro.sim import ms
from repro.workloads import FilebenchRandomIO


def filebench_ops(model, n_vms, readers, writers, run_ns=ms(30)):
    tb = build_testbed(TestbedSpec(model=model, vms_per_host=n_vms,
                                   with_clients=False))
    workloads = []
    for i, vm in enumerate(tb.vms):
        handle = tb.attach_ramdisk(vm)
        workloads.append(FilebenchRandomIO(
            tb.env, vm, handle, tb.rng.stream(f"f{i}"), tb.costs,
            readers=readers, writers=writers, warmup_ns=ms(2),
            app_dilation=tb.ports[i].app_dilation))
    tb.env.run(until=run_ns)
    total = sum(w.ops_per_sec() for w in workloads)
    switches = sum(w.scheduler.involuntary_switches.value for w in workloads)
    return total, switches


# -- Figure 14 -----------------------------------------------------------------

def test_remote_ramdisk_latency_about_2x(run_ns=ms(30)):
    """§1/§5: remote block latency up to ~2.2x Elvis's local latency
    (measured via the single-reader closed loop)."""
    elvis, _ = filebench_ops("elvis", 1, readers=1, writers=0)
    vrio, _ = filebench_ops("vrio", 1, readers=1, writers=0)
    assert 1.8 < elvis / vrio < 3.0


def test_one_reader_elvis_beats_vrio_everywhere():
    for n in (1, 7):
        elvis, _ = filebench_ops("elvis", n, readers=1, writers=0)
        vrio, _ = filebench_ops("vrio", n, readers=1, writers=0)
        assert elvis > vrio


def test_vrio_improves_with_concurrency():
    """Paper: 'The vRIO Filebench/ramdisk results improve with increased
    concurrency' — the vrio/elvis ratio rises monotonically across the
    three thread mixes."""
    ratios = []
    for readers, writers in ((1, 0), (1, 1), (2, 2)):
        elvis, _ = filebench_ops("elvis", 4, readers=readers, writers=writers)
        vrio, _ = filebench_ops("vrio", 4, readers=readers, writers=writers)
        ratios.append(vrio / elvis)
    assert ratios[0] < ratios[1] < ratios[2]


def test_two_pairs_vrio_outperforms_elvis():
    """The counterintuitive crossover at two reader/writer pairs."""
    elvis, _ = filebench_ops("elvis", 7, readers=2, writers=2)
    vrio, _ = filebench_ops("vrio", 7, readers=2, writers=2)
    assert vrio > elvis


def test_elvis_guests_switch_contexts_more():
    """The crossover's mechanism: Elvis's fast completions keep more
    threads runnable, so its guests pay more involuntary switches (the
    paper reports two orders of magnitude; our scheduler reproduces the
    direction at a smaller factor — see EXPERIMENTS.md)."""
    _, elvis_switches = filebench_ops("elvis", 4, readers=2, writers=2)
    _, vrio_switches = filebench_ops("vrio", 4, readers=2, writers=2)
    assert elvis_switches > 1.5 * vrio_switches


def test_baseline_worst_for_block_io():
    for readers, writers in ((1, 0), (2, 2)):
        base, _ = filebench_ops("baseline", 7, readers=readers,
                                writers=writers)
        elvis, _ = filebench_ops("elvis", 7, readers=readers,
                                 writers=writers)
        assert base < elvis


# -- Figures 15/16 ----------------------------------------------------------------

def test_consolidation_tradeoff_fig16a():
    """Paper: halving the sidecores costs vRIO ~8% vs Elvis, while the
    baseline loses ~51%."""
    rows = {r["model"]: r["relative"] for r in run_fig16a(run_ns=ms(40))}
    assert rows["elvis"] == 0.0
    assert -0.15 < rows["vrio"] < 0.0       # small sacrifice
    assert rows["baseline"] < -0.25          # the baseline pays heavily
    assert rows["vrio"] > rows["baseline"]


def test_load_imbalance_fig16b():
    """Paper: with the same two-sidecore budget and AES interposition on
    one active VMhost, vRIO delivers ~1.8x Elvis (consolidated sidecores
    can both serve the hot host)."""
    rows = {r["model"]: r["relative"] for r in run_fig16b(run_ns=ms(40))}
    assert 0.5 < rows["vrio"] < 1.8


def test_consolidated_sidecore_is_better_utilized():
    """Fig. 15: Elvis's two sidecores each do less useful work than vRIO's
    single consolidated worker."""
    from repro.experiments import run_fig15
    result = run_fig15(run_ns=ms(40))
    elvis_avgs = result["elvis"]["averages"]
    vrio_avg = result["vrio"]["averages"][0]
    assert len(elvis_avgs) == 2
    assert all(avg < vrio_avg for avg in elvis_avgs)
    # The Elvis sidecores are underutilized (most cycles are poll waste).
    assert all(avg < 60 for avg in elvis_avgs)
