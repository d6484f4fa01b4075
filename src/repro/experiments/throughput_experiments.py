"""Throughput experiments: Figure 9 (stream), Figure 10 (cycles/packet),
Figure 11 (equal cores), Figure 5 & 12 (macrobenchmarks).

Sweep points are independent simulations dispatched through
:func:`~repro.experiments.executor.sweep`; cross-point derived columns
(the "relative to optimum" ratios) are computed after the merge so every
point stays hermetic and cacheable.  Figures that read the same runs share
a run record: Fig. 11 replays Fig. 9's ``stream`` cells, and Fig. 5 the
Apache half of Fig. 12's ``macro`` cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..iomodels.registry import filter_models
from ..sim import ms
from .runner import (
    DEFAULT_RUN_NS,
    SeriesPoint,
    SweepCache,
    macro_run,
    stream_run,
    sweep,
)

__all__ = [
    "run_fig09", "format_fig09",
    "run_fig10", "format_fig10",
    "run_fig11", "format_fig11",
    "run_fig05", "format_fig05",
    "run_fig12", "format_fig12",
]

# Every net-capable model in the registry.  Fig. 9 historically plotted
# four series (no vrio_nopoll); since the registry redesign it carries
# all contenders — per-model sweep points are cached independently, so
# the paper's series are unchanged by the additions.
FIG9_MODELS = filter_models(net=True, order="throughput")
FIG5_MODELS = filter_models(net=True, order="tab")


def _stream_point(params: dict) -> float:
    """One (model, N) stream cell of Figs. 9 and 11: aggregate Gbps."""
    _tb, workloads = stream_run(params["model"], params["n_vms"],
                                run_ns=params["run_ns"])
    return sum(w.throughput_gbps() for w in workloads)


def run_fig09(vm_counts: Sequence[int] = range(1, 8),
              run_ns: int = DEFAULT_RUN_NS,
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[Sequence[str]] = None) -> List[SeriesPoint]:
    """Fig. 9: aggregate netperf 64 B stream throughput (Gbps) vs N."""
    points = [{"model": model_name, "n_vms": int(n), "run_ns": run_ns}
              for model_name in (models if models is not None
                                 else FIG9_MODELS)
              for n in vm_counts]
    values = sweep(points, _stream_point, jobs=jobs,
                   record="stream", cache=cache)
    return [SeriesPoint(p["model"], p["n_vms"], v)
            for p, v in zip(points, values)]


def format_fig09(points: List[SeriesPoint]) -> str:
    ns = sorted({p.n_vms for p in points})
    lines = ["Figure 9: netperf stream throughput [Gbps]",
             f"{'model':12s} " + " ".join(f"N={n:<5d}" for n in ns)]
    for model_name in dict.fromkeys(p.model for p in points):
        vals = {p.n_vms: p.value for p in points if p.model == model_name}
        lines.append(f"{model_name:12s} "
                     + " ".join(f"{vals[n]:7.2f}" for n in ns))
    return "\n".join(lines)


def _fig10_point(params: dict) -> dict:
    """One model of Fig. 10: per-packet cycle counts (no ratios yet)."""
    model_name = params["model"]
    tb, workloads = stream_run(model_name, 1, run_ns=params["run_ns"])
    stream = workloads[0]
    messages = (stream.chunks_received
                * tb.costs.netperf_stream_msgs_per_chunk)
    vm_cycles = sum(vm.vcpu.total_cycles for vm in tb.vms)
    service_cycles = sum(core.total_cycles for core in tb.service_cores)
    if model_name.startswith("vrio"):
        client_side = vm_cycles            # workers live at the IOhost
    else:
        client_side = vm_cycles + service_cycles
    total = vm_cycles + service_cycles
    per_packet = client_side / messages if messages else float("inf")
    per_packet_total = total / messages if messages else float("inf")
    return {"model": model_name,
            "cycles_per_packet": per_packet,
            "cycles_per_packet_total": per_packet_total}


def run_fig10(run_ns: int = DEFAULT_RUN_NS,
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[Sequence[str]] = None) -> List[dict]:
    """Fig. 10: per-packet processing cycles with one VM, netperf stream.

    "Packet" is one 64 B application message.  The headline column counts
    guest + VMhost-local cycles — the paper attributes vRIO's +9% to "the
    added processing time incurred by the vRIO driver", i.e. to the
    sender's side; the total column adds the remote IOhost workers.
    """
    if models is None:
        models = filter_models(net=True, ablation=False, order="tab")
    points = [{"model": model_name, "run_ns": run_ns}
              for model_name in models]
    rows = sweep(points, _fig10_point, jobs=jobs,
                 record="fig10", cache=cache)
    by_model = {row["model"]: row for row in rows}
    reference_row = by_model.get("optimum", rows[0])
    reference = reference_row["cycles_per_packet"]
    for row in rows:
        row["relative_to_optimum"] = row["cycles_per_packet"] / reference - 1.0
    return rows


def format_fig10(rows: List[dict]) -> str:
    lines = ["Figure 10: netperf stream per-packet processing (N=1)",
             f"{'model':10s} {'cycles/pkt':>11s} {'vs optimum':>11s} "
             f"{'incl IOhost':>12s}"]
    for r in rows:
        lines.append(f"{r['model']:10s} {r['cycles_per_packet']:11.0f} "
                     f"{r['relative_to_optimum']:+10.1%} "
                     f"{r['cycles_per_packet_total']:12.0f}")
    return "\n".join(lines)


def run_fig11(run_ns: int = DEFAULT_RUN_NS,
              jobs: int = 1,
              cache: Optional[SweepCache] = None) -> List[dict]:
    """Fig. 11: equal-core comparison — the optimum with N+1=8 VMs versus
    everyone else at N=7; shows the price of interposability."""
    configs = [("optimum_8vms", "optimum", 8), ("optimum", "optimum", 7),
               ("elvis", "elvis", 7), ("vrio", "vrio", 7),
               ("baseline", "baseline", 7)]
    points = [{"model": model_name, "n_vms": n, "run_ns": run_ns}
              for _label, model_name, n in configs]
    totals = sweep(points, _stream_point, jobs=jobs,
                   record="stream", cache=cache)
    reference = totals[0]
    return [{"label": label, "throughput_gbps": total,
             "relative": total / reference - 1.0}
            for (label, _model, _n), total in zip(configs, totals)]


def format_fig11(rows: List[dict]) -> str:
    lines = ["Figure 11: throughput with equalized cores (stream)",
             f"{'config':13s} {'Gbps':>7s} {'vs opt 8vms':>12s}"]
    for r in rows:
        lines.append(f"{r['label']:13s} {r['throughput_gbps']:7.2f} "
                     f"{r['relative']:+11.1%}")
    return "\n".join(lines)


def _macro_point(params: dict) -> float:
    """One (benchmark, model, N) macrobenchmark cell: aggregate tps."""
    _tb, workloads = macro_run(params["benchmark"], params["model"],
                               params["n_vms"], run_ns=params["run_ns"])
    return sum(w.throughput_tps() for w in workloads)


def run_fig05(vm_counts: Sequence[int] = range(1, 8),
              run_ns: int = ms(30),
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[Sequence[str]] = None) -> List[SeriesPoint]:
    """Fig. 5: ApacheBench aggregate requests/sec for every model."""
    points = [{"benchmark": "apache", "model": model_name,
               "n_vms": int(n), "run_ns": run_ns}
              for model_name in (models if models is not None
                                 else FIG5_MODELS)
              for n in vm_counts]
    values = sweep(points, _macro_point, jobs=jobs,
                   record="macro", cache=cache)
    return [SeriesPoint(p["model"], p["n_vms"], v)
            for p, v in zip(points, values)]


def format_fig05(points: List[SeriesPoint]) -> str:
    ns = sorted({p.n_vms for p in points})
    lines = ["Figure 5: ApacheBench aggregate requests/sec",
             f"{'model':12s} " + " ".join(f"N={n:<7d}" for n in ns)]
    for model_name in dict.fromkeys(p.model for p in points):
        vals = {p.n_vms: p.value for p in points if p.model == model_name}
        lines.append(f"{model_name:12s} "
                     + " ".join(f"{vals[n]:9.0f}" for n in ns))
    return "\n".join(lines)


def run_fig12(vm_counts: Sequence[int] = range(1, 8),
              run_ns: int = ms(30),
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[Sequence[str]] = None
              ) -> Dict[str, List[SeriesPoint]]:
    """Fig. 12: memcached and Apache transactions/sec vs N."""
    benchmarks = ("memcached", "apache")
    points = [{"benchmark": benchmark, "model": model_name,
               "n_vms": int(n), "run_ns": run_ns}
              for benchmark in benchmarks
              for model_name in (models if models is not None
                                 else FIG9_MODELS)
              for n in vm_counts]
    values = sweep(points, _macro_point, jobs=jobs,
                   record="macro", cache=cache)
    result: Dict[str, List[SeriesPoint]] = {b: [] for b in benchmarks}
    for p, v in zip(points, values):
        result[p["benchmark"]].append(SeriesPoint(p["model"], p["n_vms"], v))
    return result


def format_fig12(result: Dict[str, List[SeriesPoint]]) -> str:
    blocks = []
    for benchmark, points in result.items():
        ns = sorted({p.n_vms for p in points})
        lines = [f"Figure 12 ({benchmark}): transactions/sec",
                 f"{'model':10s} " + " ".join(f"N={n:<7d}" for n in ns)]
        for model_name in dict.fromkeys(p.model for p in points):
            vals = {p.n_vms: p.value for p in points if p.model == model_name}
            lines.append(f"{model_name:10s} "
                         + " ".join(f"{vals[n]:9.0f}" for n in ns))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
