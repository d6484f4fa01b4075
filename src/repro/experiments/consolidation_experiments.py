"""Figures 15 and 16: sidecore consolidation — utilization, tradeoff,
and load imbalance.

Setup (§5 *Improving Utilization*): two VMhosts, five VMs each, all
running the filebench Webserver personality on a 1 GB ramdisk (remote at
the IOhost for vRIO).

* Fig. 15 — per-sidecore CPU utilization traces: Elvis's two sidecores
  (one per VMhost) are underutilized; vRIO's single consolidated sidecore
  does the same work on fewer cycles.
* Fig. 16a — throughput tradeoff of consolidating 2 sidecores into 1:
  vRIO within ~8% of Elvis; the baseline far behind.
* Fig. 16b — load imbalance (§5): only one VMhost active, AES-256
  interposition enabled; Elvis can only use that host's single local
  sidecore, while vRIO brings both consolidated sidecores to bear.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster import Testbed, TestbedSpec, build_testbed
from ..interpose import AesEncryption
from ..sim import TimeSeries, ms
from ..telemetry import sample_utilization
from ..workloads import WebserverPersonality
from .runner import SweepCache, sweep

__all__ = [
    "run_fig15", "format_fig15",
    "run_fig16a", "format_fig16a",
    "run_fig16b", "format_fig16b",
]


def _start_webservers(tb: Testbed, vm_indices, run_ns: int,
                      warmup_ns: int) -> List[WebserverPersonality]:
    workloads = []
    for i in vm_indices:
        vm = tb.vms[i]
        handle = tb.attach_ramdisk(vm)
        rng = tb.rng.stream(f"webserver-{i}")
        workloads.append(WebserverPersonality(
            tb.env, vm, handle, rng, tb.costs, warmup_ns=warmup_ns,
            app_dilation=tb.ports[i].app_dilation))
    return workloads


def _sample_utilization(tb: Testbed, interval_ns: int) -> List[TimeSeries]:
    """Periodic useful-cycle utilization of each service core."""
    return sample_utilization(tb.env, tb.service_cores, interval_ns)


def _fig15_point(params: dict) -> dict:
    """One model of Fig. 15: utilization traces of every sidecore."""
    tb = build_testbed(TestbedSpec(
        model=params["model"], topology="consolidation", n_vmhosts=2,
        vms_per_host=5, sidecores=params["workers"]))
    run_ns = params["run_ns"]
    _start_webservers(tb, range(len(tb.vms)), run_ns, warmup_ns=ms(2))
    series = _sample_utilization(tb, params["interval_ns"])
    tb.env.run(until=run_ns)
    return {
        "cores": [ts.name for ts in series],
        "series": [{"name": ts.name, "times": ts.times,
                    "values": ts.values} for ts in series],
        "averages": [ts.mean() for ts in series],
    }


def run_fig15(run_ns: int = ms(60), interval_ns: int = ms(2),
              jobs: int = 1,
              cache: Optional[SweepCache] = None) -> Dict[str, dict]:
    """Fig. 15: sidecore utilization traces for Elvis (2 local) vs vRIO
    (1 consolidated)."""
    points = [{"model": model_name, "workers": workers,
               "run_ns": run_ns, "interval_ns": interval_ns}
              for model_name, workers in (("elvis", 1), ("vrio", 1))]
    rows = sweep(points, _fig15_point, jobs=jobs,
                 record="fig15", cache=cache)
    result = {}
    for p, row in zip(points, rows):
        series = []
        for data in row["series"]:
            ts = TimeSeries(data["name"])
            for t, v in zip(data["times"], data["values"]):
                ts.record(t, v)
            series.append(ts)
        result[p["model"]] = {
            "cores": row["cores"],
            "series": series,
            "averages": row["averages"],
        }
    return result


def format_fig15(result: Dict[str, dict]) -> str:
    lines = ["Figure 15: sidecore CPU utilization (useful work, %)"]
    for model_name, data in result.items():
        for name, avg in zip(data["cores"], data["averages"]):
            lines.append(f"  {model_name:6s} {name:24s} avg={avg:5.1f}%")
    return "\n".join(lines)


def _fig16a_point(params: dict) -> float:
    """One model of Fig. 16a: aggregate webserver Mbps."""
    tb = build_testbed(TestbedSpec(
        model=params["model"], topology="consolidation", n_vmhosts=2,
        vms_per_host=5, sidecores=1))
    run_ns = params["run_ns"]
    workloads = _start_webservers(tb, range(len(tb.vms)), run_ns,
                                  warmup_ns=ms(2))
    tb.env.run(until=run_ns)
    return sum(w.throughput_mbps() for w in workloads)


def run_fig16a(run_ns: int = ms(60),
               jobs: int = 1,
               cache: Optional[SweepCache] = None) -> List[dict]:
    """Fig. 16a: the 2=>1 consolidation tradeoff (webserver throughput)."""
    # Paper-fixed cast: Fig. 16 is the sidecore-consolidation tradeoff,
    # defined for the paper's three consolidation contenders (elvis is
    # the reference); not a registry-derived comparison.
    points = [{"model": model_name, "run_ns": run_ns}
              for model_name in ("elvis", "vrio", "baseline")]  # simlint: disable=SIM501
    totals = sweep(points, _fig16a_point, jobs=jobs,
                   record="fig16a", cache=cache)
    reference = totals[0]
    return [{"model": p["model"], "throughput_mbps": total,
             "relative": total / reference - 1.0}
            for p, total in zip(points, totals)]


def format_fig16a(rows: List[dict]) -> str:
    lines = ["Figure 16a: consolidation tradeoff (2=>1), webserver Mbps",
             f"{'model':10s} {'Mbps':>8s} {'vs elvis':>9s}"]
    for r in rows:
        lines.append(f"{r['model']:10s} {r['throughput_mbps']:8.0f} "
                     f"{r['relative']:+8.1%}")
    return "\n".join(lines)


def _fig16b_point(params: dict) -> float:
    """One model of Fig. 16b: aggregate Mbps with AES interposition."""
    sidecores = {"elvis": 1, "vrio": 2}[params["model"]]
    tb = build_testbed(TestbedSpec(
        model=params["model"], topology="consolidation", n_vmhosts=2,
        vms_per_host=5, sidecores=sidecores))
    for model in tb.models:
        model.add_interposer(AesEncryption())
    run_ns = params["run_ns"]
    active = range(5)  # VMhost 0's VMs only; VMhost 1 idles
    workloads = _start_webservers(tb, active, run_ns, warmup_ns=ms(2))
    tb.env.run(until=run_ns)
    return sum(w.throughput_mbps() for w in workloads)


def run_fig16b(run_ns: int = ms(60),
               jobs: int = 1,
               cache: Optional[SweepCache] = None) -> List[dict]:
    """Fig. 16b: load imbalance (2=>2) with AES-256 interposition.

    Two-sidecore budget; only VMhost 0 is active.  Elvis's second sidecore
    (on the idle host) is stranded; vRIO's two consolidated workers both
    serve the active host.
    """
    # Paper-fixed cast, as in fig16a: the 2=>2 imbalance story contrasts
    # exactly elvis's stranded sidecore with vRIO's shared workers.
    points = [{"model": model_name, "run_ns": run_ns}
              for model_name in ("elvis", "vrio")]  # simlint: disable=SIM501
    totals = sweep(points, _fig16b_point, jobs=jobs,
                   record="fig16b", cache=cache)
    reference = totals[0]
    return [{"model": p["model"], "throughput_mbps": total,
             "relative": total / reference - 1.0}
            for p, total in zip(points, totals)]


def format_fig16b(rows: List[dict]) -> str:
    lines = ["Figure 16b: load imbalance (2=>2) with AES interposition",
             f"{'model':10s} {'Mbps':>8s} {'vs elvis':>9s}"]
    for r in rows:
        lines.append(f"{r['model']:10s} {r['throughput_mbps']:8.0f} "
                     f"{r['relative']:+8.1%}")
    return "\n".join(lines)
