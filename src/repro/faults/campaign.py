"""Fault campaigns: scenario × fault plan × seed, with a recovery report.

A :class:`Campaign` pairs a :class:`~repro.cluster.TestbedSpec` (carrying
its :class:`FaultPlan`) with a workload and a run length.
:func:`execute_campaign` builds the testbed (which arms the injector),
drives the workload, and assembles a canonical-JSON report of:

* per-fault lifecycle — injection, detection latency, failover downtime;
* request accounting — submitted / completed / lost, plus the §4.5
  reliability ledger (retransmissions, recovered, device errors, stales);
* steady-state throughput before / during / after the fault;
* a flight-recorder dump when a fault stayed unrecovered.

Reports are canonicalized, so the same campaign at the same seed is
byte-identical run-to-run — they plug straight into the sweep executor's
content-addressed cache (``python -m repro faults --jobs N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster import TestbedSpec, build_testbed
from ..experiments.executor import SweepCache, canonical_json, canonicalize, sweep
from ..hw.storage import BlockRequest
from ..iomodels.costs import DEFAULT_COSTS
from ..iomodels.vrio.reliability import BlockDeviceError
from ..sim import ms
from ..telemetry import FlightRecorder, SloProbe, SloSpec, Timeline
from ..workloads import NetperfRR
from .plan import FaultPlan, FaultSpec

__all__ = [
    "Campaign",
    "CampaignResult",
    "CAMPAIGNS",
    "campaign_names",
    "execute_campaign",
    "run_campaign_point",
    "run_campaigns",
    "format_report",
    "run_fault_smoke",
    "DEFAULT_CAMPAIGN",
]

# Shortened §4.5 timeouts so campaigns resolve in tens of simulated ms:
# 0.5 ms initial, doubling to a 2 ms cap (the cap is hit on attempt 4 —
# the PR-3 backoff-cap path), 3 retransmissions before the device error.
_FAST_BLK = dict(blk_initial_timeout_ns=500_000,
                 blk_max_retransmissions=3,
                 blk_max_timeout_ns=2_000_000)

# Recovery-curve resolution: every campaign's run is windowed into this
# many timeline windows (the sanctioned width source for SIM405).
_RECOVERY_WINDOWS = 24


def _campaign_window_ns(campaign: "Campaign") -> int:
    if campaign.slo is not None and campaign.slo.window_ns:
        return campaign.slo.window_ns
    return campaign.run_ns // _RECOVERY_WINDOWS


@dataclass(frozen=True)
class Campaign:
    """One named fault campaign (pure data; seeds come from the caller)."""

    name: str
    description: str
    spec: TestbedSpec
    workload: str = "block"     # "block" | "rr"
    run_ns: int = ms(20)
    streams: int = 3            # block streams per VM
    io_bytes: int = 4096
    slo: Optional[SloSpec] = None


@dataclass
class CampaignResult:
    """A campaign run: the canonical report plus live objects for tests."""

    report: dict
    testbed: object
    workloads: List[object]


class _BlockStreamDriver:
    """Closed-loop block streams against one VM's device handle.

    Streams use disjoint sector ranges, so the guest-disk-scheduler
    invariant (one outstanding request per block, §4.5) holds by
    construction.  Completion timestamps feed the phase-throughput
    accounting; a :class:`BlockDeviceError` counts the request as lost
    and the stream moves on — exactly what a journaling filesystem's
    error path would do.
    """

    def __init__(self, env, handle, streams: int, io_bytes: int, label: str):
        self.env = env
        self.submitted = 0
        self.completions: List[int] = []
        self.failures: List[int] = []
        for index in range(streams):
            env.process(self._stream(handle, index, io_bytes),
                        name=f"fault-blk:{label}:{index}")

    def _stream(self, handle, stream_index: int, io_bytes: int):
        env = self.env
        sectors_per_io = max(1, -(-io_bytes // 512))
        base = stream_index * 64 * sectors_per_io
        i = 0
        while True:
            op = "read" if (i + stream_index) % 2 == 0 else "write"
            sector = base + (i % 64) * sectors_per_io
            request = BlockRequest(op=op, sector=sector, size_bytes=io_bytes)
            self.submitted += 1
            try:
                yield handle.submit(request)
                self.completions.append(env.now)
            except BlockDeviceError:
                self.failures.append(env.now)
            i += 1


def _start_workload(campaign: Campaign, testbed):
    """Attach and start the campaign's workload.

    Returns ``(drivers, workloads, count_ops)`` where ``count_ops`` reads
    the cumulative operation count (completions / transactions) — called
    at phase boundaries for the before/during/after throughput split.
    """
    if campaign.workload == "block":
        drivers = []
        for vm in testbed.vms:
            handle = testbed.attach_ramdisk(vm)
            drivers.append(_BlockStreamDriver(
                testbed.env, handle, streams=campaign.streams,
                io_bytes=campaign.io_bytes, label=vm.name))
        count_ops = lambda: sum(len(d.completions) for d in drivers)
        return drivers, drivers, count_ops
    if campaign.workload == "rr":
        workloads = [
            NetperfRR(testbed.env, testbed.clients[i], testbed.ports[i],
                      testbed.costs,
                      rng=testbed.rng.stream(f"fault-rr-{i}"))
            for i in range(len(testbed.vms))]
        count_ops = lambda: sum(w.transactions for w in workloads)
        return [], workloads, count_ops
    raise ValueError(f"unknown campaign workload {campaign.workload!r}")


def _reliability_totals(testbed) -> Dict[str, int]:
    totals = {"retransmissions": 0, "recovered": 0, "failures": 0,
              "stale_responses": 0, "device_errors": 0, "completions": 0}
    for model in testbed.models:
        clients = getattr(model, "_clients", None)
        if clients is None:
            continue
        for name in sorted(clients):
            client = clients[name]
            reliable = getattr(client, "reliable", None)
            if reliable is None:
                continue
            for key in totals:
                totals[key] += getattr(reliable, key).value
    return totals


def _phase_entry(ops: int, duration_ns: int) -> dict:
    rate = (ops * 1e9 / duration_ns) if duration_ns > 0 else 0.0
    return {"ops": ops, "duration_ns": duration_ns, "ops_per_sec": rate}


def execute_campaign(campaign: Campaign, seed: int = 0) -> CampaignResult:
    """Run one campaign at one seed; returns the result bundle."""
    spec = campaign.spec.copy(seed=seed)
    testbed = build_testbed(spec)
    recorder = FlightRecorder(capacity=192).attach(testbed.env)
    injector = testbed.fault_injector
    if injector is not None:
        injector.recorder = recorder
    drivers, workloads, count_ops = _start_workload(campaign, testbed)

    # Recovery-curve timeline: the run chopped into fixed windows, each
    # reporting completed ops and ops/s.  The timeline is an *advance*
    # monitor riding the already-monitored campaign run (the flight
    # recorder keeps the engine on the monitored loop), so the schedule
    # — and the phase-mark detection/downtime numbers below — are
    # byte-identical with or without it.
    timeline = Timeline(_campaign_window_ns(campaign))
    timeline.watch_rate("ops", count_ops)
    testbed.env.add_monitor(timeline)
    probe = None
    if campaign.slo is not None:
        probe = SloProbe(campaign.slo, recorder=recorder).attach(timeline)

    # Phase marks: ops counts captured exactly at the first injection and
    # at the first recovery/window-clear (deterministic scheduled events,
    # not samplers).
    marks: Dict[str, tuple] = {}
    if injector is not None and injector.records:
        first = injector.records[0]

        def mark_inject():
            marks.setdefault("inject", (testbed.env.now, count_ops()))

        def mark_recover(_record):
            marks.setdefault("recover", (testbed.env.now, count_ops()))

        testbed.env.schedule_at(first.spec.at_ns, mark_inject)
        injector.on_recover.append(mark_recover)
        injector.on_clear.append(mark_recover)

    testbed.env.run(until=campaign.run_ns)
    timeline.flush(testbed.env.now)

    total_ops = count_ops()
    end_ns = testbed.env.now
    inject_ns, ops_at_inject = marks.get("inject", (None, None))
    recover_ns, ops_at_recover = marks.get("recover", (None, None))
    if inject_ns is not None:
        before = _phase_entry(ops_at_inject, inject_ns)
        if recover_ns is not None:
            during = _phase_entry(ops_at_recover - ops_at_inject,
                                  recover_ns - inject_ns)
            after = _phase_entry(total_ops - ops_at_recover,
                                 end_ns - recover_ns)
        else:
            during = _phase_entry(total_ops - ops_at_inject,
                                  end_ns - inject_ns)
            after = _phase_entry(0, 0)
    else:
        before = _phase_entry(total_ops, end_ns)
        during = _phase_entry(0, 0)
        after = _phase_entry(0, 0)

    reliability = _reliability_totals(testbed)
    unrecovered = len(injector.unrecovered) if injector is not None else 0
    recovery_curve = [
        {"window": w["index"], "start_ns": w["start_ns"],
         "end_ns": w["end_ns"], "ops": w["rates"]["ops"]["delta"],
         "ops_per_sec": w["rates"]["ops"]["rate_per_s"]}
        for w in timeline.windows]
    violations = len(probe.violations) if probe is not None else 0
    report = {
        "campaign": campaign.name,
        "description": campaign.description,
        "seed": seed,
        "model": spec.model,
        "topology": spec.topology,
        "workload": campaign.workload,
        "run_ns": campaign.run_ns,
        "faults": injector.summary() if injector is not None else [],
        "requests": {
            "submitted": sum(d.submitted for d in drivers),
            "completed": sum(len(d.completions) for d in drivers),
            "lost": sum(len(d.failures) for d in drivers),
            "ops_total": total_ops,
            **reliability,
        },
        "throughput": {"before": before, "during": during, "after": after},
        "recovery_curve": recovery_curve,
        "slo": probe.to_dict() if probe is not None else None,
        "unrecovered": unrecovered,
        "flight": (recorder.dump(last=48).splitlines()
                   if unrecovered or violations else []),
    }
    return CampaignResult(report=canonicalize(report), testbed=testbed,
                          workloads=workloads)


# -- the stock campaigns -----------------------------------------------------

def _plan(*faults: FaultSpec) -> FaultPlan:
    return FaultPlan(faults=faults)


def _build_campaigns() -> Dict[str, Campaign]:
    fast_costs = DEFAULT_COSTS.copy(**_FAST_BLK)
    campaigns = [
        Campaign(
            name="iohost_crash",
            description=("IOhost dies mid-run; guests detect via §4.5 "
                         "timeouts and fail over to local virtio with a "
                         "replica disk (§4.6)"),
            spec=TestbedSpec(
                model="vrio", topology="switched", vms_per_host=1,
                costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="iohost_crash", at_ns=ms(8),
                    params={"recover": "fallback", "replica": True}))),
            workload="block", run_ns=ms(24),
            # Failover downtime is bounded by the §4.5 detection timeouts;
            # anything past 4 ms of dead windows is an SLO breach.
            slo=SloSpec(
                name="iohost_failover_slo",
                max_downtime_ns=4_000_000,
                throughput_metric="ops",
                window_ns=ms(24) // _RECOVERY_WINDOWS)),
        Campaign(
            name="link_loss",
            description=("40% frame loss on the VMhost-IOhost channel for "
                         "8 ms; the reliability layer retransmits through "
                         "it (§4.5)"),
            spec=TestbedSpec(
                model="vrio", topology="simple", with_clients=False,
                costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="link_loss", at_ns=ms(4), duration_ns=ms(8),
                    target="channel", params={"probability": 0.4}))),
            workload="block", run_ns=ms(20)),
        Campaign(
            name="link_blackout",
            description=("3 ms total blackout on the channel; every "
                         "in-flight request survives via capped-backoff "
                         "retransmission"),
            spec=TestbedSpec(
                model="vrio", topology="simple", with_clients=False,
                costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="link_down", at_ns=ms(5), duration_ns=ms(3),
                    target="channel"))),
            workload="block", run_ns=ms(18)),
        Campaign(
            name="nic_failure",
            description=("the IOhost's channel NIC function drops all "
                         "traffic for 3 ms; recovery mirrors a link "
                         "blackout"),
            spec=TestbedSpec(
                model="vrio", topology="simple", with_clients=False,
                costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="nic_function_failure", at_ns=ms(5),
                    duration_ns=ms(3), target="ch-vmhost0"))),
            workload="block", run_ns=ms(18)),
        Campaign(
            name="storage_errors",
            description=("the remote ramdisk errors every request for "
                         "3 ms; errors surface as not-ok responses the "
                         "guest retries like losses"),
            spec=TestbedSpec(
                model="vrio", topology="simple", with_clients=False,
                costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="storage_error_burst", at_ns=ms(6),
                    duration_ns=ms(3)))),
            workload="block", run_ns=ms(18),
            # The error burst stalls completions for ~3 ms, so both
            # clauses must fire: idle windows breach the 1.5 ms downtime
            # budget, and the ramp windows breach the throughput floor.
            slo=SloSpec(
                name="storage_block_slo",
                throughput_floor_per_s=2_000.0,
                max_downtime_ns=1_500_000,
                throughput_metric="ops",
                window_ns=ms(18) // _RECOVERY_WINDOWS)),
        Campaign(
            name="storage_errors_nvme_pt",
            description=("the same error burst under NVMe queue "
                         "passthrough: no host software interposes, so "
                         "errors land in the guest as failed CQEs instead "
                         "of being retried — completions stall, requests "
                         "are lost"),
            spec=TestbedSpec(
                model="nvme_pt", topology="simple", with_clients=False,
                costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="storage_error_burst", at_ns=ms(6),
                    duration_ns=ms(3)))),
            workload="block", run_ns=ms(18),
            # Same SLO contract as the vRIO campaign: the burst zeroes
            # *successful* completions for its whole 3 ms window, so both
            # clauses breach — and unlike vRIO nothing is recovered.
            slo=SloSpec(
                name="storage_block_slo",
                throughput_floor_per_s=2_000.0,
                max_downtime_ns=1_500_000,
                throughput_metric="ops",
                window_ns=ms(18) // _RECOVERY_WINDOWS)),
        Campaign(
            name="storage_errors_flexbso",
            description=("the same error burst under FlexBSO offload: the "
                         "engine copies the medium's error status into "
                         "the used ring verbatim (it offloads the data "
                         "path, not recovery), so guests eat the errors"),
            spec=TestbedSpec(
                model="flexbso", topology="simple", with_clients=False,
                costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="storage_error_burst", at_ns=ms(6),
                    duration_ns=ms(3)))),
            workload="block", run_ns=ms(18),
            slo=SloSpec(
                name="storage_block_slo",
                throughput_floor_per_s=2_000.0,
                max_downtime_ns=1_500_000,
                throughput_metric="ops",
                window_ns=ms(18) // _RECOVERY_WINDOWS)),
        Campaign(
            name="sidecore_stall",
            description=("the (only) vRIO worker is pinned for 2 ms; "
                         "RR throughput dips and recovers, nothing is "
                         "lost"),
            spec=TestbedSpec(
                model="vrio", topology="simple", vms_per_host=2,
                fault_plan=_plan(FaultSpec(
                    kind="sidecore_stall", at_ns=ms(6),
                    duration_ns=ms(2), target="0"))),
            workload="rr", run_ns=ms(16)),
        Campaign(
            name="migration",
            description=("live-migrate a client's I/O hypervisor "
                         "connection to a second channel with a 2 ms "
                         "blackout (§4.6)"),
            spec=TestbedSpec(
                model="vrio", topology="scalability", n_vmhosts=2,
                vms_per_host=1, costs=fast_costs,
                fault_plan=_plan(FaultSpec(
                    kind="live_migration", at_ns=ms(6),
                    params={"client": 0, "target_channel": 1,
                            "downtime_ns": 2_000_000}))),
            workload="block", run_ns=ms(20)),
    ]
    return {c.name: c for c in campaigns}


CAMPAIGNS: Dict[str, Campaign] = _build_campaigns()
DEFAULT_CAMPAIGN = "iohost_crash"


def campaign_names() -> List[str]:
    return sorted(CAMPAIGNS)


def run_campaign_point(params: dict) -> dict:
    """Sweep-executor point function: one campaign at one seed.

    Module-level (spawn-picklable); params: ``{"campaign": name,
    "seed": int}``.
    """
    campaign = CAMPAIGNS[params["campaign"]]
    seed = int(params.get("seed", 0))
    return execute_campaign(campaign, seed).report


def run_campaigns(names: List[str], seed: int = 0,
                  jobs=1, cache: Optional[SweepCache] = None) -> List[dict]:
    """Run several campaigns (optionally in parallel / cached)."""
    for name in names:
        if name not in CAMPAIGNS:
            raise KeyError(f"unknown campaign {name!r}; known: "
                           f"{', '.join(campaign_names())}")
    points = [{"campaign": name, "seed": seed} for name in names]
    return sweep(points, run_campaign_point, jobs=jobs, record="faults",
                 cache=cache)


def _fmt_ms(ns: Optional[int]) -> str:
    return "-" if ns is None else f"{ns / 1e6:.3f} ms"


def _fmt_us(ns: Optional[int]) -> str:
    return "-" if ns is None else f"{ns / 1e3:.1f} us"


def format_report(report: dict) -> str:
    """Human-readable rendering of one campaign report."""
    lines = [
        f"campaign {report['campaign']} (seed {report['seed']}): "
        f"{report['description']}",
        f"  model={report['model']} topology={report['topology']} "
        f"workload={report['workload']} run={_fmt_ms(report['run_ns'])}",
    ]
    for fault in report["faults"]:
        lines.append(f"  fault {fault['kind']}"
                     + (f" target={fault['target']}" if fault["target"] else "")
                     + f" @ {_fmt_ms(fault['injected_ns'])}")
        lines.append("    detection latency: "
                     f"{_fmt_us(fault['detection_latency_ns'])}")
        lines.append("    recovery downtime: "
                     f"{_fmt_us(fault['downtime_ns'])}")
        if fault["duration_ns"]:
            lines.append(f"    window: {_fmt_ms(fault['duration_ns'])} "
                         f"(cleared @ {_fmt_ms(fault['cleared_ns'])})")
        if fault["detail"]:
            lines.append(f"    note: {fault['detail']}")
    requests = report["requests"]
    lines.append(
        "  requests: "
        f"submitted={requests['submitted']} "
        f"completed={requests['completed']} lost={requests['lost']} "
        f"retransmissions={requests['retransmissions']} "
        f"recovered={requests['recovered']} "
        f"device_errors={requests['device_errors']} "
        f"stale={requests['stale_responses']}")
    phases = report["throughput"]
    lines.append("  throughput (ops/s): " + "  ".join(
        f"{name}={phases[name]['ops_per_sec']:.0f}"
        for name in ("before", "during", "after")))
    curve = report.get("recovery_curve") or []
    if curve:
        from ..telemetry import sparkline
        width = curve[0]["end_ns"] - curve[0]["start_ns"]
        lines.append(
            f"  recovery curve ({len(curve)} windows × "
            f"{width / 1e3:.0f} us): "
            + sparkline([w["ops_per_sec"] for w in curve]))
    slo = report.get("slo")
    if slo is not None:
        violations = slo["violations"]
        if violations:
            lines.append(f"  slo {slo['spec']['name']}: "
                         f"{len(violations)} violation(s)")
            for violation in violations[:6]:
                lines.append(
                    f"    window #{violation['window_index']} "
                    f"[{violation['start_ns'] / 1e6:.2f}-"
                    f"{violation['end_ns'] / 1e6:.2f} ms] "
                    f"{violation['kind']}: observed "
                    f"{violation['observed']:.0f} vs limit "
                    f"{violation['limit']:.0f}")
            if len(violations) > 6:
                lines.append(f"    ... {len(violations) - 6} more")
        else:
            lines.append(f"  slo {slo['spec']['name']}: met in all "
                         f"{slo['windows_evaluated']} windows")
    if report["unrecovered"]:
        lines.append(f"  result: UNRECOVERED ({report['unrecovered']} fault(s))")
        lines.extend(f"    {line}" for line in report["flight"])
    else:
        lines.append("  result: recovered")
    return "\n".join(lines)


def run_fault_smoke(seed: int = 0) -> Optional[str]:
    """The ``verify --faults`` check: the flagship campaign must detect,
    fail over, and produce byte-identical reports run-to-run.  Returns a
    problem description, or None when healthy."""
    campaign = CAMPAIGNS[DEFAULT_CAMPAIGN]
    first = execute_campaign(campaign, seed).report
    second = execute_campaign(campaign, seed).report
    if canonical_json(first) != canonical_json(second):
        return "campaign report is not deterministic across runs"
    if first["unrecovered"]:
        return "the IOhost-crash campaign did not recover"
    fault = first["faults"][0]
    if fault["detection_latency_ns"] is None:
        return "the IOhost crash was never detected"
    if first["requests"]["completed"] == 0:
        return "no block requests completed"
    if first["throughput"]["after"]["ops"] == 0:
        return "no throughput after failover"
    return None
