"""Figure 14: making a local device remote — filebench on a 1 GB ramdisk.

Three thread mixes per VM (one reader; one reader + one writer; two of
each) doing O_DIRECT 4 KB random I/O.  The counterintuitive result — vRIO
beating Elvis at two pairs — comes from involuntary guest context
switches: Elvis's low-latency completions keep all threads runnable on the
single VCPU, which timeslices them at a cost, while vRIO's network latency
keeps the run queue shallow.

Also here: the §5 SATA-SSD variant ("When applied to SATA SSDs available
to us, the reader's baseline and vRIO throughput become 75%–95% and
83%–95% relative to Elvis") — a slow medium hides most of the remote hop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..cluster import TestbedSpec, build_testbed
from ..hw.storage import make_sata_ssd
from ..iomodels.registry import filter_models
from ..sim import ms
from ..workloads import FilebenchRandomIO
from .runner import SweepCache, sweep

__all__ = ["run_fig14", "format_fig14", "FIG14_MIXES",
           "run_fig14_ssd", "format_fig14_ssd"]

# Every headline model with host-managed block devices (the optimum has
# none; vrio_nopoll is an ablation), in the figure's series order.
FIG14_MODELS = filter_models(block=True, ablation=False, order="block")
FIG14_MIXES = {
    "1 reader": (1, 0),
    "1 pair": (1, 1),
    "2 pairs": (2, 2),
}


def _fig14_point(params: dict) -> dict:
    """One (mix, model, N) filebench/ramdisk cell."""
    model_name, n = params["model"], params["n_vms"]
    readers, writers = params["readers"], params["writers"]
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=n,
                                   with_clients=False))
    workloads = []
    for i, vm in enumerate(tb.vms):
        handle = tb.attach_ramdisk(vm)
        rng = tb.rng.stream(f"filebench-{i}")
        workloads.append(FilebenchRandomIO(
            tb.env, vm, handle, rng, tb.costs,
            readers=readers, writers=writers,
            warmup_ns=ms(2),
            app_dilation=tb.ports[i].app_dilation))
    tb.env.run(until=params["run_ns"])
    total_ops = sum(w.ops_per_sec() for w in workloads)
    switches = sum(w.scheduler.involuntary_switches.value
                   for w in workloads)
    return {"model": model_name, "n_vms": n,
            "ops_per_sec": total_ops,
            "involuntary_switches": switches}


def run_fig14(vm_counts: Sequence[int] = range(1, 8),
              run_ns: int = ms(40),
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[Sequence[str]] = None) -> Dict[str, List[dict]]:
    """Aggregate filebench ops/sec per mix, model, and VM count."""
    points = [{"mix": mix_name, "readers": readers, "writers": writers,
               "model": model_name, "n_vms": int(n), "run_ns": run_ns}
              for mix_name, (readers, writers) in FIG14_MIXES.items()
              for model_name in (models if models is not None
                                 else FIG14_MODELS)
              for n in vm_counts]
    rows = sweep(points, _fig14_point, jobs=jobs,
                 record="fig14", cache=cache)
    result: Dict[str, List[dict]] = {mix: [] for mix in FIG14_MIXES}
    for p, row in zip(points, rows):
        result[p["mix"]].append(row)
    return result


def _fig14_ssd_point(params: dict) -> float:
    """One (model, N) SATA-SSD cell: aggregate single-reader ops/sec."""
    model_name, n = params["model"], params["n_vms"]
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=n,
                                   with_clients=False))
    workloads = []
    for i, vm in enumerate(tb.vms):
        device = make_sata_ssd(tb.env, name=f"ssd-{vm.name}")
        handle = tb.attach_block_device(vm, device)
        rng = tb.rng.stream(f"ssd-{i}")
        workloads.append(FilebenchRandomIO(
            tb.env, vm, handle, rng, tb.costs,
            readers=1, writers=0, disk_bytes=device.capacity_bytes,
            warmup_ns=ms(4),
            app_dilation=tb.ports[i].app_dilation))
    tb.env.run(until=params["run_ns"])
    return sum(w.ops_per_sec() for w in workloads)


def run_fig14_ssd(vm_counts: Sequence[int] = (1, 4, 7),
                  run_ns: int = ms(60),
                  jobs: int = 1,
                  cache: Optional[SweepCache] = None,
                  models: Optional[Sequence[str]] = None) -> List[dict]:
    """The §5 SATA-SSD remark: single-reader throughput relative to Elvis.

    A slow medium dominates the service time, so the remote hop matters
    far less than on a ramdisk: baseline and vRIO land within 75–95% of
    Elvis instead of ~40%.
    """
    if models is None:
        models = FIG14_MODELS
    if "elvis" not in models:
        models = ("elvis",) + tuple(models)  # the figure's reference series
    points = [{"model": model_name, "n_vms": int(n), "run_ns": run_ns}
              for n in vm_counts for model_name in models]
    values = sweep(points, _fig14_ssd_point, jobs=jobs,
                   record="fig14ssd", cache=cache)
    ops = {(p["model"], p["n_vms"]): v for p, v in zip(points, values)}
    rows = []
    for n in vm_counts:
        row = {"n_vms": int(n), "elvis_ops": ops[("elvis", n)]}
        for model_name in models:
            if model_name == "elvis":
                continue
            row[f"{model_name}_rel"] = (ops[(model_name, n)]
                                        / ops[("elvis", n)])
        rows.append(row)
    return rows


def format_fig14_ssd(rows: List[dict]) -> str:
    models = [k[:-len("_rel")] for k in rows[0] if k.endswith("_rel")]
    lines = ["Figure 14 variant (SATA SSD, 1 reader): throughput relative "
             "to Elvis",
             f"{'N':>3s} {'elvis ops/s':>12s} "
             + " ".join(f"{m:>9s}" for m in models)]
    for r in rows:
        lines.append(f"{r['n_vms']:3d} {r['elvis_ops']:12.0f} "
                     + " ".join(f"{r[m + '_rel']:9.0%}" for m in models))
    return "\n".join(lines)


def format_fig14(result: Dict[str, List[dict]]) -> str:
    blocks = []
    for mix_name, rows in result.items():
        ns = sorted({r["n_vms"] for r in rows})
        lines = [f"Figure 14 ({mix_name}): filebench/ramdisk ops per sec",
                 f"{'model':10s} " + " ".join(f"N={n:<7d}" for n in ns)]
        for model_name in dict.fromkeys(r["model"] for r in rows):
            vals = {r["n_vms"]: r["ops_per_sec"] for r in rows
                    if r["model"] == model_name}
            lines.append(f"{model_name:10s} "
                         + " ".join(f"{vals[n]:9.0f}" for n in ns))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
