"""The §4.6 *Energy* extension: monitor/mwait sidecores.

"An inherent downside of the sidecore approach is that polling consumes
energy.  In principle, this cost can be reduced by trading off some
latency and utilizing the CPU's monitor/mwait capability [...] This
optimization is outside the scope of this work."  — paper §4.6.

We implement it anyway: IOhost workers can park in mwait instead of
spinning, paying a ~1.5 us wakeup on each burst of work.  The experiment
sweeps load (number of RR VMs) and reports latency and sidecore energy
per idle policy, exposing the tradeoff the paper predicts: large energy
savings when load is light, converging costs (and a small latency tax)
as the sidecore saturates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cluster import TestbedSpec, build_testbed
from ..sim import ms
from ..workloads import NetperfRR
from .runner import SweepCache, sweep

__all__ = ["run_energy", "format_energy"]


def _energy_point(params: dict) -> dict:
    """One (policy, N) cell: RR latency + sidecore energy."""
    policy, n = params["policy"], params["n_vms"]
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=n,
                                   worker_idle_policy=policy))
    workloads = [NetperfRR(tb.env, tb.clients[i], tb.ports[i],
                           tb.costs, warmup_ns=ms(2))
                 for i in range(n)]
    tb.env.run(until=params["run_ns"])
    latency = sum(w.mean_latency_us() for w in workloads) / n
    worker = tb.service_cores[0]
    return {
        "policy": policy,
        "n_vms": n,
        "latency_us": latency,
        "sidecore_joules": worker.energy_joules(),
        "sidecore_useful_pct": worker.util.useful_fraction() * 100,
    }


def run_energy(vm_counts: Sequence[int] = (1, 4, 7),
               run_ns: int = ms(30),
               jobs: int = 1,
               cache: Optional[SweepCache] = None) -> List[dict]:
    """RR latency + IOhost sidecore energy for polling vs mwait workers."""
    points = [{"policy": policy, "n_vms": int(n), "run_ns": run_ns}
              for policy in ("poll", "mwait") for n in vm_counts]
    return sweep(points, _energy_point, jobs=jobs,
                 record="energy", cache=cache)


def format_energy(rows: List[dict]) -> str:
    lines = ["Energy extension (§4.6): polling vs mwait IOhost sidecore",
             f"{'policy':7s} {'N':>3s} {'latency us':>11s} "
             f"{'energy J':>9s} {'useful %':>9s}"]
    for r in rows:
        lines.append(f"{r['policy']:7s} {r['n_vms']:3d} "
                     f"{r['latency_us']:11.1f} {r['sidecore_joules']:9.3f} "
                     f"{r['sidecore_useful_pct']:9.1f}")
    return "\n".join(lines)
