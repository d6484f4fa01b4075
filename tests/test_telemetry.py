"""Tests for the unified telemetry layer (repro.telemetry)."""

import json
import math
from unittest import mock

import pytest

from repro.sim import Environment, Histogram, Tracer
from repro.telemetry import (
    FlightRecorder,
    LatencyAttribution,
    MetricsRegistry,
    TelemetrySession,
    text_report,
    to_chrome_trace_json,
    to_metrics_csv,
    to_metrics_json,
    trace_markers,
    validate_chrome_trace,
    validate_metrics,
)
from repro.telemetry.flight import _describe


# -- registry ---------------------------------------------------------------

def test_registry_duplicate_name_raises():
    registry = MetricsRegistry()
    registry.register_counter("a.b")
    with pytest.raises(ValueError, match="already registered"):
        registry.register_counter("a.b")
    with pytest.raises(ValueError, match="already registered"):
        registry.register_gauge("a.b", lambda: 0)


def test_registry_rejects_malformed_names():
    registry = MetricsRegistry()
    for bad in ("", "has space", ".leading", "trailing.", "dou..ble"):
        with pytest.raises(ValueError):
            registry.register_counter(bad)


def test_registry_gauge_must_be_callable():
    registry = MetricsRegistry()
    with pytest.raises(TypeError):
        registry.register_gauge("g", 42)


def test_registry_namespace_prefixes_and_nests():
    registry = MetricsRegistry()
    ns = registry.namespace("vrio")
    inner = ns.namespace("pool")
    ns.register_counter("forwarded")
    inner.register_counter("steered")
    assert "vrio.forwarded" in registry
    assert "vrio.pool.steered" in registry
    assert registry.kind_of("vrio.pool.steered") == "counter"
    # Same leaf name under different namespaces never collides...
    registry.namespace("elvis").register_counter("forwarded")
    # ...but the same full name still does.
    with pytest.raises(ValueError):
        ns.register_counter("forwarded")


def test_registry_snapshot_expands_each_kind():
    registry = MetricsRegistry()
    counter = registry.register_counter("c")
    counter.add(3)
    registry.register_gauge("g", lambda: 7.5)
    histogram = registry.register_histogram("h")
    for v in (10, 20, 30):
        histogram.add(v)
    registry.register_histogram("empty")
    snap = registry.snapshot()
    assert snap["c"] == 3
    assert snap["g"] == 7.5
    assert snap["h.count"] == 3
    assert snap["h.p50"] == 20
    # Empty histograms contribute only their count: no None values leak.
    assert snap["empty.count"] == 0
    assert "empty.mean" not in snap
    assert all(v is not None for v in snap.values())


def test_registry_names_sorted_and_len():
    registry = MetricsRegistry()
    registry.register_counter("z")
    registry.register_counter("a")
    assert registry.names() == ["a", "z"]
    assert len(registry) == 2


# -- exporters --------------------------------------------------------------

def test_metrics_json_and_csv_round_trip():
    snap = {"b.count": 2, "a.rate": 0.125}
    assert json.loads(to_metrics_json(snap)) == snap
    csv_text = to_metrics_csv(snap)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1] == "a.rate,0.125"
    assert lines[2] == "b.count,2"


def test_validate_metrics_rejects_bad_snapshots():
    validate_metrics({"ok": 1, "also": 2.5})
    with pytest.raises(ValueError):
        validate_metrics({})
    with pytest.raises(ValueError):
        validate_metrics({"nan": math.nan})
    with pytest.raises(ValueError):
        validate_metrics({"b": True})
    with pytest.raises(ValueError):
        validate_metrics({"s": "text"})


def test_validate_chrome_trace_schema():
    env = Environment()
    tracer = Tracer(env)
    tracer.point("t", "p")
    span = tracer.begin("t", "s")
    tracer.end(span)
    doc = json.loads(to_chrome_trace_json(tracer))
    validate_chrome_trace(doc)
    with pytest.raises(ValueError):
        validate_chrome_trace({"no": "traceEvents"})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"name": "x"}]})
    with pytest.raises(ValueError):  # complete event must carry dur
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]})
    with pytest.raises(ValueError):  # unknown phase
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 1}]})


# -- stage breakdown --------------------------------------------------------

def _advance(env, ns):
    def sleeper(env):
        yield env.timeout(ns)

    env.process(sleeper(env))
    env.run()


def test_trace_markers_order_and_span_ends():
    env = Environment()
    tracer = Tracer(env)
    tracer.point("r", "guest_tx")
    _advance(env, 100)
    span = tracer.begin("r", "service")
    _advance(env, 250)
    tracer.end(span)
    _advance(env, 50)
    tracer.point("r", "guest_deliver")
    assert trace_markers(tracer) == {"r": [
        (0, "guest_tx"), (100, "service"),
        (350, "service_end"), (400, "guest_deliver")]}


def test_stage_sums_equal_end_to_end_exactly():
    """Stages tile each trace's marker range: sums match with no rounding."""
    attribution = LatencyAttribution()
    markers = [(0, "guest_tx"), (137, "service"),
               (450, "service_end"), (991, "guest_deliver")]
    attribution.add_trace("r", markers)
    stage_sum = sum(sum(h.samples) for h in attribution.stages.values())
    assert stage_sum == sum(attribution.end_to_end.samples) == 991
    # Span interval is named after the span; hops are arrow-joined.
    assert list(attribution.stages) == [
        "guest_tx→service", "service", "service_end→guest_deliver"]


def test_stage_table_on_real_scenario_tiles_exactly():
    from repro.testing import run_scenario

    with TelemetrySession() as session:
        result = run_scenario("rr_vrio", seed=3)
    telemetry = session.for_testbed(result.testbed)
    tracer = telemetry.tracer
    grouped = trace_markers(tracer)
    assert list(grouped) == tracer.trace_ids()
    for trace_id, markers in grouped.items():
        if len(markers) < 2:
            continue
        single = LatencyAttribution()
        single.add_trace(trace_id, markers)
        stage_sum = sum(sum(h.samples) for h in single.stages.values())
        assert stage_sum == markers[-1][0] - markers[0][0]


def test_stage_table_format_mentions_counts():
    attribution = LatencyAttribution()
    attribution.add_trace("r", [(0, "a"), (10, "b")])
    text = attribution.stage_table()
    assert "1 traced requests" in text
    assert "a→b" in text
    assert (LatencyAttribution().stage_table()
            == "stage breakdown: no traced requests")


class _ReferenceStageTable:
    """The stage table as the report rendered it before the attribution
    took it over, kept verbatim as the byte-for-byte reference."""

    def __init__(self) -> None:
        self.stages = {}
        self.end_to_end = Histogram("end_to_end")
        self.traces = 0

    def add_trace(self, markers) -> None:
        if len(markers) < 2:
            return
        self.traces += 1
        for (t0, a), (t1, b) in zip(markers, markers[1:]):
            stage = a if b == f"{a}_end" else f"{a}→{b}"
            histogram = self.stages.get(stage)
            if histogram is None:
                histogram = self.stages[stage] = Histogram(stage)
            histogram.add(t1 - t0)
        self.end_to_end.add(markers[-1][0] - markers[0][0])

    def format(self) -> str:
        if not self.traces:
            return "stage breakdown: no traced requests"
        lines = [f"stage latency breakdown ({self.traces} traced requests, us)",
                 f"{'stage':38s} {'count':>7s} {'mean':>9s} {'p50':>9s} "
                 f"{'p95':>9s} {'p99':>9s} {'max':>9s}"]
        rows = list(self.stages.items()) + [("end_to_end", self.end_to_end)]
        for name, histogram in rows:
            d = histogram.summary()
            if d["count"] == 0:
                lines.append(f"{name:38s} {0:7d}")
                continue
            cells = " ".join(f"{d[s] / 1000.0:9.2f}"
                             for s in ("mean", "p50", "p95", "p99", "max"))
            lines.append(f"{name:38s} {d['count']:7d} {cells}")
        return "\n".join(lines)


@pytest.mark.parametrize("scenario",
                         ["apache_vrio", "stream_vrio", "rr_nvme_pt"])
def test_report_stage_table_matches_reference_bytes(scenario):
    from repro.testing import run_scenario

    with TelemetrySession() as session:
        result = run_scenario(scenario, seed=0)
    telemetry = session.for_testbed(result.testbed)
    reference = _ReferenceStageTable()
    for markers in trace_markers(telemetry.tracer).values():
        reference.add_trace(markers)
    # rr_nvme_pt traces nothing: its table is the empty-case line.
    assert (reference.traces == 0) == (scenario == "rr_nvme_pt")
    stage_table = text_report(telemetry).split("\n\n", 1)[0]
    assert stage_table == reference.format()


# -- flight recorder --------------------------------------------------------

def test_flight_recorder_bounded_and_dumpable():
    recorder = FlightRecorder(capacity=4)
    for i in range(10):
        recorder.note(i * 100, "test", f"entry{i}")
    assert recorder.recorded == 10
    entries = recorder.entries()
    assert len(entries) == 4
    assert entries[-1][3] == "entry9"
    dump = recorder.dump(last=2)
    assert "last 2 of 10 entries" in dump
    assert "entry9" in dump and "entry7" not in dump
    assert FlightRecorder().dump() == "flight recorder: empty"


def test_flight_recorder_observes_engine_steps():
    env = Environment()
    recorder = FlightRecorder(capacity=16).attach(env)

    def proc(env):
        yield env.timeout(10)
        yield env.timeout(10)

    env.process(proc(env), name="worker")
    env.run()
    assert recorder.recorded > 0
    assert any(source == "process" and "worker" in detail
               for _, _, source, detail in recorder.entries())
    recorder.detach()
    before = recorder.recorded
    env.process(proc(env), name="late")
    env.run()
    assert recorder.recorded == before


class _EagerRecorder(FlightRecorder):
    """The recorder as it would be if it described each step at once."""

    def on_step(self, now, item):
        self._seq += 1
        self._entries.append((self._seq, now, *_describe(item)))


def test_flight_recorder_dump_matches_eager_description():
    from repro.cluster import TestbedSpec, build_testbed
    from repro.sim import ms
    from repro.workloads import NetperfRR

    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=2, seed=0))
    lazy = FlightRecorder(capacity=64).attach(tb.env)
    eager = _EagerRecorder(capacity=64).attach(tb.env)
    for i in range(2):
        NetperfRR(tb.env, tb.clients[i], tb.ports[i], tb.costs,
                  rng=tb.rng.stream(f"rr-client-{i}"))
    for at_ns in (ms(0.1), ms(0.2)):
        def mark(at_ns=at_ns):
            for recorder in (lazy, eager):
                recorder.note(at_ns, "mark", "pinned", pin=True)
        tb.env.schedule_at(at_ns, mark)
    tb.env.run(until=ms(0.5))
    sources = {source for _, _, source, _ in eager.entries()}
    assert {"process", "event", "callback", "mark"} <= sources
    assert lazy.entries() == eager.entries()
    assert lazy.dump() == eager.dump()
    assert lazy.dump(last=10) == eager.dump(last=10)


def test_flight_recorder_capacity_enforced_under_session():
    from repro.testing import run_scenario

    notes = []
    note = FlightRecorder.note

    def counting_note(self, *args, **kwargs):
        notes.append(args)
        note(self, *args, **kwargs)

    with mock.patch.object(FlightRecorder, "note", counting_note):
        with TelemetrySession():
            result = run_scenario("apache_vrio", seed=0)
    env = result.testbed.env
    recorder = result.testbed.telemetry.recorder
    steps = env.events_dispatched + env.callbacks_dispatched
    assert steps == 18_155
    assert recorder.recorded == steps + len(notes)
    assert len(recorder._entries) == recorder.capacity
    pinned = len(recorder._pinned)
    assert pinned <= FlightRecorder.PINNED_CAPACITY
    assert len(recorder.entries()) <= recorder.capacity + pinned


def test_verify_testbed_dumps_flight_recorder_on_violation():
    from repro.testing import run_scenario, verify_testbed

    with TelemetrySession() as session:
        result = run_scenario("rr_vrio", seed=0)
    testbed = result.testbed
    # A clean run attaches no flight-recorder violation.
    assert verify_testbed(testbed) == []
    # Corrupt a counter: the audit must now append the recorder dump.
    testbed.stats.exits.value = -1
    violations = verify_testbed(testbed)
    assert violations
    assert violations[-1].invariant == "flight-recorder"
    assert "flight recorder: last" in violations[-1].detail
    testbed.stats.exits.value = 0


# -- sessions and behavior neutrality ---------------------------------------

def test_session_binds_testbed_and_snapshot_is_valid():
    from repro.testing import run_scenario

    with TelemetrySession() as session:
        result = run_scenario("rr_elvis", seed=1)
    telemetry = session.for_testbed(result.testbed)
    assert telemetry is result.testbed.telemetry
    snap = telemetry.snapshot()
    validate_metrics(snap)
    validate_chrome_trace(telemetry.chrome_trace())
    # Elvis registers its sidecores and per-VM virtqueues.
    assert any(name.startswith("sidecores.0.") for name in snap)
    assert any(".txq." in name for name in snap)


def test_no_session_means_no_telemetry():
    from repro.testing import run_scenario

    result = run_scenario("rr_vrio", seed=1)
    assert getattr(result.testbed, "telemetry", None) is None


def test_telemetry_does_not_perturb_golden_metrics():
    """Instrumented and bare runs fingerprint identically (passivity)."""
    from repro.testing import run_scenario

    bare = run_scenario("rr_vrio", seed=0)
    with TelemetrySession():
        observed = run_scenario("rr_vrio", seed=0)
    assert bare.metrics == observed.metrics


def test_session_registers_storage_devices_lazily():
    from repro.testing import run_scenario

    with TelemetrySession() as session:
        result = run_scenario("filebench_vrio", seed=0)
    snap = session.for_testbed(result.testbed).snapshot()
    storage = {n: v for n, v in snap.items() if n.startswith("storage.")}
    assert storage, "attach_ramdisk during the run must register the device"
    assert any(n.endswith(".reads") for n in storage)
    # The block datapath traced its device access.
    tracer = session.for_testbed(result.testbed).tracer
    assert tracer.span_durations("device_io")


def test_sidecore_utilization_matches_scalability_experiment():
    """Acceptance: registry utilization == the experiment's own numbers."""
    from repro.experiments import run_fig13_util
    from repro.sim import ms

    rows = run_fig13_util(total_vms=8, workers=2, run_ns=ms(10))
    assert len(rows) == 2
    for row in rows:
        assert row["busy_fraction"] == pytest.approx(
            row["busy_fraction_registry"], rel=1e-9)
        assert row["useful_fraction"] == pytest.approx(
            row["useful_fraction_registry"], rel=1e-9)
        assert 0.0 < row["busy_fraction"] <= 1.0 + 1e-9


# -- CLI --------------------------------------------------------------------

def test_observe_cli_writes_report_and_trace(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["observe", "rr_vrio"]) == 0
    out = capsys.readouterr().out
    assert "stage latency breakdown" in out
    assert "key metrics" in out
    trace_file = tmp_path / "rr_vrio.trace.json"
    assert trace_file.exists()
    doc = json.loads(trace_file.read_text())
    validate_chrome_trace(doc)
    assert doc["traceEvents"]


def test_observe_cli_optional_dumps(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "t.json"
    mjson = tmp_path / "m.json"
    mcsv = tmp_path / "m.csv"
    assert main(["observe", "rr_baseline", "--seed", "2",
                 "--trace", str(trace), "--json", str(mjson),
                 "--csv", str(mcsv)]) == 0
    capsys.readouterr()
    validate_chrome_trace(json.loads(trace.read_text()))
    snapshot = json.loads(mjson.read_text())
    validate_metrics(snapshot)
    assert mcsv.read_text().startswith("metric,value\n")


def test_observe_cli_unknown_scenario_exits_2(capsys):
    from repro.cli import main

    assert main(["observe", "nonesuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario: nonesuch" in err
    assert "valid scenarios:" in err
    assert "rr_vrio" in err
    assert "fig12=apache_vrio" in err


def test_verify_cli_telemetry_column(capsys):
    from repro.cli import main

    assert main(["verify", "--scenario", "rr_vrio", "--telemetry"]) == 0
    out = capsys.readouterr().out
    assert "telemetry" in out.splitlines()[0]
    assert " ok" in out
