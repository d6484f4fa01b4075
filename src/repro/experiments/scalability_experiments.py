"""Figure 13: IOhost scalability — one IOhost serving four logical VMhosts.

VM counts grow 4, 8, ..., 28 (one more VM per VMhost each step), for 1, 2
and 4 IOhost sidecores.  13a measures netperf RR latency (including the
load generators' NUMA artifact); 13b measures aggregate stream throughput,
whose per-sidecore saturation point (~13 Gbps) is the paper's headline
scalability number.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..cluster import TestbedSpec, build_testbed
from ..sim import ms
from ..workloads import NetperfRR, NetperfStream
from .runner import SweepCache, sweep

__all__ = ["run_fig13", "run_fig13a", "run_fig13b", "format_fig13",
           "run_fig13_util", "format_fig13_util"]

WORKER_COUNTS = (1, 2, 4)


def _fig13_points(total_vms: Sequence[int], run_ns: int) -> List[dict]:
    points = []
    for workers in WORKER_COUNTS:
        for n in total_vms:
            if n % 4:
                raise ValueError("total VM count must be a multiple of 4")
            points.append({"workers": workers, "n_vms": int(n),
                           "run_ns": run_ns})
    return points


def _fig13a_point(params: dict) -> dict:
    """One (workers, N) cell of Fig. 13a: mean RR latency."""
    workers, n = params["workers"], params["n_vms"]
    tb = build_testbed(TestbedSpec(
        model="vrio", topology="scalability", n_vmhosts=4,
        vms_per_host=n // 4, sidecores=workers,
        model_numa=params["model_numa"]))
    rrs = [NetperfRR(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                     warmup_ns=ms(2)) for i in range(n)]
    tb.env.run(until=params["run_ns"])
    mean_us = sum(r.mean_latency_us() for r in rrs) / n
    return {"workers": workers, "n_vms": n, "latency_us": mean_us}


def run_fig13a(total_vms: Sequence[int] = (4, 8, 12, 16, 20, 24, 28),
               run_ns: int = ms(40), model_numa: bool = True,
               jobs: int = 1,
               cache: Optional[SweepCache] = None) -> List[dict]:
    """Fig. 13a: RR latency vs total VMs for 1/2/4 IOhost sidecores."""
    points = _fig13_points(total_vms, run_ns)
    for p in points:
        p["model_numa"] = model_numa
    return sweep(points, _fig13a_point, jobs=jobs,
                 record="fig13a", cache=cache)


def _fig13b_point(params: dict) -> dict:
    """One (workers, N) cell of Fig. 13b: aggregate stream Gbps."""
    workers, n = params["workers"], params["n_vms"]
    tb = build_testbed(TestbedSpec(
        model="vrio", topology="scalability", n_vmhosts=4,
        vms_per_host=n // 4, sidecores=workers, model_numa=False))
    streams = [NetperfStream(tb.env, tb.ports[i], tb.clients[i],
                             tb.costs, warmup_ns=ms(3))
               for i in range(n)]
    tb.env.run(until=params["run_ns"])
    total = sum(s.throughput_gbps() for s in streams)
    return {"workers": workers, "n_vms": n, "throughput_gbps": total}


def run_fig13b(total_vms: Sequence[int] = (4, 8, 12, 16, 20, 24, 28),
               run_ns: int = ms(40),
               jobs: int = 1,
               cache: Optional[SweepCache] = None) -> List[dict]:
    """Fig. 13b: aggregate stream throughput vs total VMs, 1/2/4 sidecores."""
    return sweep(_fig13_points(total_vms, run_ns), _fig13b_point, jobs=jobs,
                 record="fig13b", cache=cache)


def run_fig13(total_vms: Sequence[int] = (4, 8, 12, 16, 20, 24, 28),
              run_ns: int = ms(40),
              jobs: int = 1,
              cache: Optional[SweepCache] = None
              ) -> Tuple[List[dict], List[dict]]:
    """Fig. 13: both halves, ``(run_fig13a rows, run_fig13b rows)``."""
    return (run_fig13a(total_vms, run_ns, jobs=jobs, cache=cache),
            run_fig13b(total_vms, run_ns, jobs=jobs, cache=cache))


def run_fig13_util(total_vms: int = 8, workers: int = 2,
                   run_ns: int = ms(40)) -> List[dict]:
    """Per-sidecore utilization of the Fig. 13 stream run, read two ways.

    Runs the 13b topology under a telemetry session and reports each
    IOhost sidecore's busy/useful fractions both directly from the core
    and through the metrics registry — the two must agree, which is the
    registry's correctness check against the scalability experiment.
    """
    from ..telemetry import TelemetrySession

    if total_vms % 4:
        raise ValueError("total VM count must be a multiple of 4")
    with TelemetrySession() as session:
        tb = build_testbed(TestbedSpec(
            model="vrio", topology="scalability", n_vmhosts=4,
            vms_per_host=total_vms // 4, sidecores=workers,
            model_numa=False))
        streams = [NetperfStream(tb.env, tb.ports[i], tb.clients[i],
                                 tb.costs, warmup_ns=ms(3))
                   for i in range(total_vms)]
        tb.env.run(until=run_ns)
    del streams
    snapshot = session.for_testbed(tb).snapshot()
    rows = []
    for idx, core in enumerate(tb.service_cores):
        rows.append({
            "worker": idx,
            "core": core.name,
            "busy_fraction": core.util.busy_fraction(),
            "useful_fraction": core.util.useful_fraction(),
            "busy_fraction_registry":
                snapshot[f"sidecores.{idx}.util.busy_fraction"],
            "useful_fraction_registry":
                snapshot[f"sidecores.{idx}.util.useful_fraction"],
        })
    return rows


def format_fig13_util(rows: List[dict]) -> str:
    lines = ["Figure 13 sidecore utilization: core ledger vs metrics registry",
             f"{'core':24s} {'busy':>7s} {'busy(reg)':>9s} "
             f"{'useful':>7s} {'useful(reg)':>11s}"]
    for r in rows:
        lines.append(f"{r['core']:24s} {r['busy_fraction']:7.4f} "
                     f"{r['busy_fraction_registry']:9.4f} "
                     f"{r['useful_fraction']:7.4f} "
                     f"{r['useful_fraction_registry']:11.4f}")
    return "\n".join(lines)


def format_fig13(rows_a: List[dict], rows_b: List[dict]) -> str:
    def table(rows, key, title, fmt):
        ns = sorted({r["n_vms"] for r in rows})
        lines = [title,
                 f"{'sidecores':>9s} " + " ".join(f"N={n:<5d}" for n in ns)]
        for w in WORKER_COUNTS:
            vals = {r["n_vms"]: r[key] for r in rows if r["workers"] == w}
            lines.append(f"{w:9d} "
                         + " ".join(fmt.format(vals[n]) for n in ns))
        return "\n".join(lines)

    return (table(rows_a, "latency_us",
                  "Figure 13a: vRIO IOhost scalability - latency [usec]",
                  "{:7.1f}")
            + "\n\n"
            + table(rows_b, "throughput_gbps",
                    "Figure 13b: vRIO IOhost scalability - throughput [Gbps]",
                    "{:7.2f}"))
