"""Canonical verification scenarios: small, fast, deterministic runs.

Every consumer of the verification harness — the golden-regression tests,
the determinism tests, the invariant battery, and ``repro verify`` —
drives the *same* registry of scenarios, so a behavioural change in any
datapath shows up identically everywhere.

Each scenario assembles a testbed, runs a short workload, and distils
the run into a flat ``{metric_name: number}`` dict.  The metrics are
chosen to fingerprint the whole datapath: event-stream shape (the
kernel's own dispatch counters), Table-3 virtualization events,
message/byte flows, cycle ledgers, and the workload's own figures of
merit.  Runs are a few simulated milliseconds —
long enough for hundreds of transactions, short enough that the full
registry replays in seconds of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..cluster import MODEL_NAMES, TestbedSpec, build_testbed
from ..sim import ms
from ..workloads import ApacheBench, NetperfRR, NetperfStream, OpenLoopRR
from ..workloads.filebench import FilebenchRandomIO

__all__ = [
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "scenario_names",
    "run_scenario",
]

Metrics = Dict[str, float]


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    testbed: object
    workloads: List[object]
    metrics: Metrics


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible verification run."""

    name: str
    description: str
    build: Callable[[int], ScenarioResult] = field(repr=False)
    tags: Tuple[str, ...] = ()


# -- shared metric collection ------------------------------------------------

def _common_metrics(testbed) -> Metrics:
    env = testbed.env
    metrics: Metrics = {
        "sim.now_ns": env.now,
        "sim.steps": env.events_dispatched + env.callbacks_dispatched,
        "sim.events": env.events_dispatched,
        "stats.total": testbed.stats.total(),
    }
    for column, value in testbed.stats.snapshot().items():
        metrics[f"stats.{column}"] = value
    for scope, items in (("ports", testbed.ports), ("clients", testbed.clients)):
        metrics[f"{scope}.tx_messages"] = sum(
            p.tx_messages.value for p in items)
        metrics[f"{scope}.rx_messages"] = sum(
            p.rx_messages.value for p in items)
    metrics["ports.tx_bytes"] = sum(p.tx_bytes.value for p in testbed.ports)
    metrics["ports.rx_bytes"] = sum(p.rx_bytes.value for p in testbed.ports)
    metrics["cores.vm_cycles"] = sum(
        vm.vcpu.total_cycles for vm in testbed.vms)
    metrics["cores.service_cycles"] = sum(
        c.total_cycles for c in testbed.service_cores)
    metrics["cores.service_busy_ns"] = sum(
        c.util.busy_ns for c in testbed.service_cores)
    metrics["cores.service_useful_ns"] = sum(
        c.util.useful_ns for c in testbed.service_cores)
    return metrics


def _finish(name: str, testbed, workloads, extra: Metrics) -> ScenarioResult:
    metrics = _common_metrics(testbed)
    metrics.update(extra)
    return ScenarioResult(name=name, testbed=testbed, workloads=workloads,
                          metrics=metrics)


def _bind_workloads(testbed, workloads) -> None:
    """Expose workload instruments to an active telemetry binding.

    No-op outside a :class:`~repro.telemetry.TelemetrySession`; with one
    active, the workloads' latency histograms and progress counters
    become registry (and timeline) series.  Reference-only either way.
    """
    telemetry = getattr(testbed, "telemetry", None)
    if telemetry is not None:
        telemetry.register_workloads(workloads)


# -- scenario builders -------------------------------------------------------

_RR_RUN_NS = ms(6)
_RR_WARMUP_NS = ms(1)


def _rr_scenario(model_name: str, n_vms: int = 2):
    def build(seed: int) -> ScenarioResult:
        tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=n_vms,
                                       seed=seed))
        workloads = [
            NetperfRR(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                      warmup_ns=_RR_WARMUP_NS,
                      rng=tb.rng.stream(f"rr-client-{i}"))
            for i in range(n_vms)]
        _bind_workloads(tb, workloads)
        tb.env.run(until=_RR_RUN_NS)
        transactions = sum(w.transactions for w in workloads)
        extra = {
            "rr.transactions": transactions,
            "rr.mean_latency_us": sum(
                w.mean_latency_us() for w in workloads) / n_vms,
            "rr.p90_latency_us": max(
                w.percentile_us(90) for w in workloads),
        }
        return _finish(f"rr_{model_name}", tb, workloads, extra)

    return build


def _stream_scenario(model_name: str):
    def build(seed: int) -> ScenarioResult:
        tb = build_testbed(TestbedSpec(model=model_name, seed=seed))
        workloads = [NetperfStream(tb.env, tb.ports[0], tb.clients[0],
                                   tb.costs, warmup_ns=_RR_WARMUP_NS)]
        _bind_workloads(tb, workloads)
        tb.env.run(until=_RR_RUN_NS)
        extra = {
            "stream.gbps": workloads[0].throughput_gbps(),
            "stream.chunks": workloads[0].chunks_received,
            "stream.bytes": workloads[0].bytes_received,
        }
        return _finish(f"stream_{model_name}", tb, workloads, extra)

    return build


def _apache_scenario(model_name: str, n_vms: int = 2):
    def build(seed: int) -> ScenarioResult:
        tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=n_vms,
                                       seed=seed))
        workloads = [ApacheBench(tb.env, tb.clients[i], tb.ports[i],
                                 tb.costs, warmup_ns=_RR_WARMUP_NS)
                     for i in range(n_vms)]
        _bind_workloads(tb, workloads)
        tb.env.run(until=ms(8))
        extra = {
            "apache.transactions": sum(w.transactions for w in workloads),
            "apache.tps": sum(w.throughput_tps() for w in workloads),
        }
        return _finish(f"apache_{model_name}", tb, workloads, extra)

    return build


def _filebench_scenario(model_name: str, channel_loss: float = 0.0,
                        run_ns: int = ms(8)):
    # A lossy channel only exercises §4.5 retransmission if the run
    # outlives the 10 ms initial block timeout (plus a doubling or two).
    suffix = "_lossy" if channel_loss else ""

    def build(seed: int) -> ScenarioResult:
        spec = TestbedSpec(model=model_name, with_clients=False, seed=seed)
        if model_name.startswith("vrio"):
            spec = spec.copy(channel_loss=channel_loss)
        tb = build_testbed(spec)
        handle = tb.attach_ramdisk(tb.vms[0])
        workloads = [FilebenchRandomIO(
            tb.env, tb.vms[0], handle, rng=tb.rng.stream("filebench"),
            costs=tb.costs, readers=2, writers=1, warmup_ns=_RR_WARMUP_NS)]
        _bind_workloads(tb, workloads)
        tb.env.run(until=run_ns)
        extra = {
            "filebench.operations": workloads[0].operations,
            "filebench.ops_per_sec": workloads[0].ops_per_sec(),
        }
        if model_name == "vrio":
            client = tb.model.client_of(tb.vms[0])
            extra["filebench.retransmissions"] = (
                client.reliable.retransmissions.value)
        return _finish(f"filebench_{model_name}{suffix}", tb, workloads,
                       extra)

    return build


def _scalability_scenario():
    def build(seed: int) -> ScenarioResult:
        tb = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                       n_vmhosts=2, vms_per_host=2,
                                       sidecores=1, seed=seed))
        workloads = [
            NetperfRR(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                      warmup_ns=_RR_WARMUP_NS,
                      rng=tb.rng.stream(f"rr-client-{i}"))
            for i in range(len(tb.vms))]
        _bind_workloads(tb, workloads)
        tb.env.run(until=_RR_RUN_NS)
        extra = {
            "rr.transactions": sum(w.transactions for w in workloads),
            "rr.mean_latency_us": sum(
                w.mean_latency_us() for w in workloads) / len(workloads),
        }
        return _finish("scalability_vrio", tb, workloads, extra)

    return build


def _dc_scale_scenario():
    def build(seed: int) -> ScenarioResult:
        tb = build_testbed(TestbedSpec(model="vrio", topology="racks",
                                       n_racks=2, n_vmhosts=1,
                                       vms_per_host=1, sidecores=1,
                                       seed=seed))
        workloads = [
            OpenLoopRR(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                       arrivals_rng=tb.rng.stream(f"openloop-{i}-arrivals"),
                       size_rng=tb.rng.stream(f"openloop-{i}-sizes"),
                       phase_rng=tb.rng.stream(f"openloop-{i}-phase"),
                       users=500, diurnal_amplitude=0.3,
                       diurnal_period_ns=ms(3), burst_factor=2.0,
                       warmup_ns=_RR_WARMUP_NS)
            for i in range(len(tb.vms))]
        _bind_workloads(tb, workloads)
        tb.env.run(until=_RR_RUN_NS)
        counters = tb.fabric.counters()
        extra = {
            "openloop.offered": sum(w.offered for w in workloads),
            "openloop.transactions": sum(
                w.transactions for w in workloads),
            "openloop.p99_latency_us": max(
                w.percentile_us(99) for w in workloads),
            "fabric.ingress": counters["ingress"],
            "fabric.forwarded": counters["forwarded"],
            "fabric.flooded": counters["flooded"],
            "fabric.unknown_dst": counters["unknown_dst"],
            "fabric.filtered": counters["filtered"],
            "fabric.trunk_tx_bytes": tb.fabric.trunk_tx_bytes(),
        }
        return _finish("dc_scale", tb, workloads, extra)

    return build


def _fault_scenario(campaign_name: str):
    def build(seed: int) -> ScenarioResult:
        # Lazy: repro.faults pulls in the experiment executor; the scenario
        # registry must stay importable on its own.
        from ..faults import CAMPAIGNS, execute_campaign
        result = execute_campaign(CAMPAIGNS[campaign_name], seed)
        report = result.report
        extra: Metrics = {"fault.unrecovered": report["unrecovered"]}
        for i, fault in enumerate(report["faults"]):
            for key in ("injected_ns", "detected_ns", "recovered_ns",
                        "detection_latency_ns", "downtime_ns"):
                value = fault[key]
                extra[f"fault.{i}.{key}"] = -1 if value is None else value
        requests = report["requests"]
        for key in ("submitted", "completed", "lost", "ops_total",
                    "retransmissions", "recovered", "device_errors",
                    "stale_responses"):
            extra[f"requests.{key}"] = requests[key]
        for phase in ("before", "during", "after"):
            extra[f"throughput.{phase}.ops"] = (
                report["throughput"][phase]["ops"])
        return _finish(f"fault_{campaign_name}", result.testbed,
                       result.workloads, extra)

    return build


# -- registry ---------------------------------------------------------------

def _build_registry() -> Dict[str, Scenario]:
    registry: Dict[str, Scenario] = {}

    def add(name: str, description: str, build, *tags: str) -> None:
        registry[name] = Scenario(name=name, description=description,
                                  build=build, tags=tuple(tags))

    for model in MODEL_NAMES:
        add(f"rr_{model}",
            f"netperf RR, 2 VMs, {model} datapath (Fig. 7 shape)",
            _rr_scenario(model), "net", "latency", model)
    add("stream_vrio", "netperf 64B stream through the IOhost (Fig. 9)",
        _stream_scenario("vrio"), "net", "throughput", "vrio")
    add("stream_elvis", "netperf 64B stream with a local sidecore",
        _stream_scenario("elvis"), "net", "throughput", "elvis")
    add("apache_vrio", "ApacheBench macrobenchmark over vRIO (Fig. 12)",
        _apache_scenario("vrio"), "net", "macro", "vrio")
    add("filebench_vrio", "random I/O on a remote ramdisk (Fig. 14)",
        _filebench_scenario("vrio"), "block", "vrio")
    add("filebench_baseline", "random I/O on a local virtio ramdisk",
        _filebench_scenario("baseline"), "block", "baseline")
    add("filebench_vrio_lossy",
        "remote block I/O over a 5%-loss channel (§4.5 retransmission)",
        _filebench_scenario("vrio", channel_loss=0.05, run_ns=ms(40)),
        "block", "vrio", "loss")
    add("scalability_vrio",
        "one IOhost serving 2 VMhosts x 2 VMs (Fig. 13 topology)",
        _scalability_scenario(), "net", "scalability", "vrio")
    add("dc_scale",
        "2-rack leaf/spine fabric under open-loop cross-rack load",
        _dc_scale_scenario(), "net", "fabric", "openloop", "vrio")
    add("fault_iohost_crash",
        "IOhost crash detected via §4.5 timeouts, §4.6 failover to "
        "local virtio",
        _fault_scenario("iohost_crash"), "fault", "block", "vrio")
    add("fault_link_blackout",
        "3 ms channel blackout healed by capped-backoff retransmission",
        _fault_scenario("link_blackout"), "fault", "block", "vrio")
    return registry


SCENARIOS: Dict[str, Scenario] = _build_registry()


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def run_scenario(name: str, seed: int = 0) -> ScenarioResult:
    """Build and run one registered scenario; returns its result bundle."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    return scenario.build(seed)
