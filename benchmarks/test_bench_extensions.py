"""Benches for the implemented extensions: the §4.6 mwait energy
optimization, the §2 dynamic-sidecore-allocation alternative, and the §5
SATA-SSD variant of Figure 14."""

from conftest import run_once

from repro.experiments import (
    format_energy,
    format_fig14_ssd,
    run_energy,
    run_fig14_ssd,
)
from repro.sim import ms


def test_bench_energy_mwait(benchmark, show):
    rows = run_once(benchmark, run_energy, vm_counts=(1, 4, 7),
                    run_ns=ms(25))
    show(format_energy(rows))
    by = {(r["policy"], r["n_vms"]): r for r in rows}
    # Light load: mwait saves most of the sidecore's energy...
    assert (by[("mwait", 1)]["sidecore_joules"]
            < 0.5 * by[("poll", 1)]["sidecore_joules"])
    # ...at a bounded latency cost.
    assert (by[("mwait", 1)]["latency_us"]
            - by[("poll", 1)]["latency_us"]) < 10
    # The saving shrinks as the sidecore fills up.
    saving = lambda n: (1 - by[("mwait", n)]["sidecore_joules"]
                        / by[("poll", n)]["sidecore_joules"])
    assert saving(7) < saving(1)


def test_bench_fig14_ssd_variant(benchmark, show):
    rows = run_once(benchmark, run_fig14_ssd, vm_counts=(1, 4),
                    run_ns=ms(50))
    show(format_fig14_ssd(rows))
    for r in rows:
        # Paper §5: baseline 75-95% and vRIO 83-95% relative to Elvis.
        assert 0.70 < r["baseline_rel"] < 1.0
        assert 0.80 < r["vrio_rel"] < 1.0


def test_bench_dynamic_allocation(benchmark, show):
    """Dynamic sidecore allocation vs static vs vRIO, under the paper's
    two limitations (discreteness; server-boundedness)."""
    from repro.cluster import TestbedSpec, build_testbed
    from repro.hw import Core
    from repro.iomodels.dynamic import DynamicSidecoreAllocator
    from repro.workloads import Memslap

    def run():
        def throughput(kind):
            sidecores = 2 if kind == "static2" else 1
            model_name = "vrio" if kind == "vrio" else "elvis"
            tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=7,
                                           sidecores=sidecores))
            if kind == "dynamic":
                spares = [Core(tb.env, "vmhost0/spare0",
                               tb.costs.vmhost_ghz, poll_mode=True,
                               poll_dispatch_ns=tb.costs.poll_dispatch_ns)]
                DynamicSidecoreAllocator(tb.env, tb.model, spares,
                                         epoch_ns=ms(2))
            workloads = [Memslap(tb.env, tb.clients[i], tb.ports[i],
                                 tb.costs, warmup_ns=ms(5))
                         for i in range(7)]
            tb.env.run(until=ms(25))
            return sum(w.throughput_tps() for w in workloads)

        return {kind: throughput(kind)
                for kind in ("static1", "dynamic", "static2", "vrio")}

    out = run_once(benchmark, run)
    lines = ["Extension: dynamic sidecore allocation (memcached, N=7)"]
    for kind, tps in out.items():
        lines.append(f"  {kind:8s} {tps / 1000:7.1f} Ktps")
    show("\n".join(lines))
    # Dynamic approaches static-2 once grown...
    assert out["dynamic"] > 1.2 * out["static1"]
    assert out["dynamic"] > 0.75 * out["static2"]
    # ...but vRIO matches it with a SINGLE consolidated sidecore.
    assert out["vrio"] > 0.85 * out["dynamic"]