"""Latency experiments: Figure 7 (RR latency), Figure 8 (vRIO gap and
IOhost contention), Table 4 (tail latency).

Each figure is expressed as independent sweep points evaluated through
:func:`~repro.experiments.executor.sweep`, so regeneration parallelizes
across processes and replays from the persistent result cache.  Figs. 7
and 8 share one ``rr`` run record per (model, N): Fig. 8 is the vRIO and
optimum cells of Fig. 7, read as a latency gap plus the IOhost contention.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..iomodels.registry import filter_models
from ..sim import ms
from .runner import DEFAULT_RUN_NS, SeriesPoint, SweepCache, rr_run, sweep

__all__ = [
    "run_fig07", "format_fig07",
    "run_fig08", "format_fig08",
    "run_tab04", "format_tab04",
]

# Headline (non-ablation) net models, worst-first as the figure stacks
# its curves: the reverse of the throughput ordering.
FIG7_MODELS = tuple(reversed(filter_models(net=True, ablation=False,
                                           order="throughput")))


def _rr_point(params: dict) -> dict:
    """One (model, N) RR cell of Figs. 7 and 8: the mean latency in
    microseconds, and the IOhost worker contention in percent (``None``
    for models without an IOhost worker pool)."""
    n = params["n_vms"]
    tb, workloads = rr_run(params["model"], n, run_ns=params["run_ns"])
    pool = getattr(tb.model, "pool", None)
    return {"latency_us": sum(w.mean_latency_us() for w in workloads) / n,
            "contention_pct": (None if pool is None
                               else pool.contention_fraction() * 100.0)}


def run_fig07(vm_counts: Sequence[int] = range(1, 8),
              run_ns: int = DEFAULT_RUN_NS,
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[Sequence[str]] = None) -> List[SeriesPoint]:
    """Fig. 7: netperf RR mean latency (us) vs number of VMs."""
    points = [{"model": model_name, "n_vms": int(n), "run_ns": run_ns}
              for model_name in (models if models is not None
                                 else FIG7_MODELS)
              for n in vm_counts]
    cells = sweep(points, _rr_point, jobs=jobs, record="rr", cache=cache)
    return [SeriesPoint(p["model"], p["n_vms"], cell["latency_us"])
            for p, cell in zip(points, cells)]


def format_fig07(points: List[SeriesPoint]) -> str:
    ns = sorted({p.n_vms for p in points})
    lines = ["Figure 7: netperf RR average latency [usec]",
             f"{'model':10s} " + " ".join(f"N={n:<5d}" for n in ns)]
    for model_name in dict.fromkeys(p.model for p in points):
        vals = {p.n_vms: p.value for p in points if p.model == model_name}
        lines.append(f"{model_name:10s} "
                     + " ".join(f"{vals[n]:7.1f}" for n in ns))
    return "\n".join(lines)


def run_fig08(vm_counts: Sequence[int] = range(1, 8),
              run_ns: int = DEFAULT_RUN_NS,
              jobs: int = 1,
              cache: Optional[SweepCache] = None) -> List[dict]:
    """Fig. 8: vRIO-vs-optimum latency gap and IOhost worker contention."""
    points = [{"model": model_name, "n_vms": int(n), "run_ns": run_ns}
              for n in vm_counts
              for model_name in ("optimum", "vrio")]  # simlint: disable=SIM501
    cells = sweep(points, _rr_point, jobs=jobs, record="rr", cache=cache)
    return [{"n_vms": point["n_vms"],
             "latency_gap_us": vrio["latency_us"] - optimum["latency_us"],
             "contention_pct": vrio["contention_pct"]}
            for point, optimum, vrio
            in zip(points[0::2], cells[0::2], cells[1::2])]


def format_fig08(rows: List[dict]) -> str:
    lines = ["Figure 8: vRIO latency gap (left axis) and contention (right)",
             f"{'N':>3s} {'gap us':>8s} {'contention %':>13s}"]
    for r in rows:
        lines.append(f"{r['n_vms']:3d} {r['latency_gap_us']:8.2f} "
                     f"{r['contention_pct']:13.1f}")
    return "\n".join(lines)


# Exitless headline models only: the tail-latency comparison is about
# designs whose steady-state datapath avoids exits and injections.
TAB4_MODELS = filter_models(net=True, ablation=False, exitless=True,
                            order="throughput")
TAB4_PERCENTILES = (99.9, 99.99, 99.999, 100.0)


def _tab04_point(params: dict) -> List[list]:
    """One model of Table 4: ``[percentile, latency_us]`` pairs."""
    _tb, workloads = rr_run(params["model"], 1, run_ns=params["run_ns"],
                            noise=True)
    hist = workloads[0].latency_ns
    return [[q, hist.percentile(q) / 1000.0] for q in TAB4_PERCENTILES]


def run_tab04(run_ns: int = ms(400),
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              models: Optional[Sequence[str]] = None
              ) -> Dict[str, Dict[float, float]]:
    """Table 4: tail latency (us) for one VM.

    Runs with host background noise installed (timer ticks + rare long
    housekeeping events; the IOhost is much quieter, being a dedicated
    I/O machine) — the tails come from a request colliding with noise on
    the cores its path crosses.  Longer run than other experiments so the
    high percentiles are populated.
    """
    points = [{"model": model_name, "run_ns": run_ns}
              for model_name in (models if models is not None
                                 else TAB4_MODELS)]
    pairs = sweep(points, _tab04_point, jobs=jobs,
                  record="tab4", cache=cache)
    return {p["model"]: {float(q): v for q, v in per_model}
            for p, per_model in zip(points, pairs)}


def format_tab04(rows: Dict[str, Dict[float, float]]) -> str:
    models = tuple(rows)
    lines = ["Table 4: tail latency in microseconds for one VM",
             f"{'percentile':>11s} " + " ".join(f"{m:>9s}" for m in models)]
    for q in TAB4_PERCENTILES:
        label = f"{q}%"
        lines.append(f"{label:>11s} "
                     + " ".join(f"{rows[m][q]:9.1f}" for m in models))
    return "\n".join(lines)
