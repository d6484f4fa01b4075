"""dc_scale: multi-rack fabrics under open-loop load (ROADMAP item 2).

The paper's evaluation stops at one rack, but its §3 cost argument is a
datacenter argument — consolidation ratios pay per rack, so they only
matter multiplied by a fleet.  This artifact runs the simulated half of
that claim: a racks × users sweep over the ``racks`` topology (leaf/
spine fabric, per-rack IOhosts, cross-rack clients) under the open-loop
session generator, reporting end-to-end p99 both aggregate and as the
worst windowed p99 any telemetry window saw (the number an SLO burns
on), next to the §3 fleet consolidation row for the same rack count.

Every cell crosses the spine twice per transaction (clients live one
rack over from their VMs), so the latency curves carry the trunk
oversubscription penalty as ``users`` climbs — the effect single-rack
runs cannot show.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cluster import TestbedSpec, build_testbed
from ..costmodel.racks import fleet_consolidation_row
from ..sim import Histogram, ms
from ..telemetry import DEFAULT_WINDOW_NS, TelemetrySession
from ..workloads import OpenLoopRR
from .runner import SweepCache, sweep

__all__ = ["run_dc_scale", "format_dc_scale"]

RACK_COUNTS = (1, 2, 4)
USER_COUNTS = (1_000, 10_000)

# Open-loop shape shared by every cell: a 30% diurnal swing with two
# compressed cycles per 8 ms run, plus 2x MMPP bursts.
RATE_PER_USER_HZ = 50.0
DIURNAL_AMPLITUDE = 0.3
DIURNAL_PERIOD_NS = ms(4)
BURST_FACTOR = 2.0


def _dc_point(params: dict) -> dict:
    """One (racks, users) cell: open-loop load over the racks fabric."""
    racks, users = params["racks"], params["users"]
    run_ns = params["run_ns"]
    with TelemetrySession(timeline_width_ns=DEFAULT_WINDOW_NS) as session:
        tb = build_testbed(TestbedSpec(
            model="vrio", topology="racks", n_racks=racks,
            n_vmhosts=params["vmhosts"], vms_per_host=params["vms_per_host"],
            sidecores=params["sidecores"], n_spines=params["spines"],
            oversubscription=params["oversubscription"]))
        telemetry = session.for_testbed(tb)
        n = len(tb.vms)
        gens = [OpenLoopRR(
            tb.env, tb.clients[i], tb.ports[i], tb.costs,
            arrivals_rng=tb.rng.stream(f"openloop-{i}-arrivals"),
            size_rng=tb.rng.stream(f"openloop-{i}-sizes"),
            phase_rng=tb.rng.stream(f"openloop-{i}-phase"),
            users=users // n + (1 if i < users % n else 0),
            rate_per_user_hz=RATE_PER_USER_HZ,
            diurnal_amplitude=DIURNAL_AMPLITUDE,
            diurnal_period_ns=DIURNAL_PERIOD_NS,
            burst_factor=BURST_FACTOR,
            warmup_ns=ms(1)) for i in range(n)]
        telemetry.register_workloads(gens)
        tb.env.run(until=run_ns)

    merged = Histogram("dc_latency_ns")
    for gen in gens:
        for sample in gen.latency_ns.samples:
            merged.add(sample)
    # Worst windowed p99 across all generators and windows — the
    # timeline's view, which aggregate percentiles smooth away.
    peak_p99_ns = 0.0
    for i in range(n):
        for value in telemetry.timeline.series(f"workload.{i}.latency_ns"):
            peak_p99_ns = max(peak_p99_ns, value)
    counters = tb.fabric.counters()
    cost = fleet_consolidation_row(racks)
    return {
        "racks": racks,
        "users": users,
        "offered": sum(g.offered for g in gens),
        "completed": sum(g.transactions for g in gens),
        "p99_us": (merged.percentile(99) / 1_000.0 if merged.count else 0.0),
        "mean_us": (merged.mean() / 1_000.0 if merged.count else 0.0),
        "peak_window_p99_us": peak_p99_ns / 1_000.0,
        "fabric_forwarded": counters["forwarded"],
        "fabric_flooded": counters["flooded"],
        "fabric_unknown_dst": counters["unknown_dst"],
        "trunk_mb": tb.fabric.trunk_tx_bytes() / 1e6,
        "vm_cores": cost["vm_cores"],
        "fleet_savings_usd": cost["savings_usd"],
    }


def run_dc_scale(rack_counts: Sequence[int] = RACK_COUNTS,
                 user_counts: Sequence[int] = USER_COUNTS,
                 run_ns: int = ms(8), vmhosts: int = 2,
                 vms_per_host: int = 1, sidecores: int = 1,
                 spines: int = 1, oversubscription: float = 4.0,
                 jobs: int = 1,
                 cache: Optional[SweepCache] = None) -> List[dict]:
    """The racks × users sweep (defaults: 1/2/4 racks × 1k/10k users,
    4:1 oversubscribed single-spine fabric, 2 VMhosts per rack)."""
    points = [{"racks": r, "users": u, "run_ns": run_ns,
               "vmhosts": vmhosts, "vms_per_host": vms_per_host,
               "sidecores": sidecores, "spines": spines,
               "oversubscription": oversubscription}
              for r in rack_counts for u in user_counts]
    return sweep(points, _dc_point, jobs=jobs,
                 record="dc_scale", cache=cache)


def format_dc_scale(rows: List[dict]) -> str:
    lines = ["dc_scale: open-loop p99 and §3 fleet savings vs racks × users",
             f"{'racks':>5s} {'users':>6s} {'offered':>8s} {'done':>8s} "
             f"{'p99[us]':>9s} {'peak-w-p99':>10s} {'trunkMB':>8s} "
             f"{'flood':>6s} {'fleet-save[$]':>13s}"]
    for r in rows:
        lines.append(
            f"{r['racks']:5d} {r['users']:6d} {r['offered']:8d} "
            f"{r['completed']:8d} {r['p99_us']:9.1f} "
            f"{r['peak_window_p99_us']:10.1f} {r['trunk_mb']:8.2f} "
            f"{r['fabric_flooded']:6d} {r['fleet_savings_usd']:13,.0f}")
    return "\n".join(lines)
