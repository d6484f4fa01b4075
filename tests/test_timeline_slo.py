"""Tests for windowed timelines, latency attribution, and SLO probes."""

import json

import pytest

from repro.sim import Environment
from repro.sim.stats import percentile
from repro.telemetry import (
    DEFAULT_WINDOW_NS,
    FlightRecorder,
    LatencyAttribution,
    MetricsRegistry,
    SloProbe,
    SloSpec,
    TelemetrySession,
    Timeline,
    render_dashboard,
    sparkline,
    to_speedscope,
    to_timeline_csv,
    to_timeline_json,
    validate_speedscope,
    validate_timeline,
)
from repro.testing import run_scenario, scenario_names

WIDTH = 1_000  # test window width (ns)


# -- engine advance monitors -------------------------------------------------

def test_on_advance_fires_before_new_timestamp_dispatches():
    env = Environment()
    log = []

    class Advance:
        def on_advance(self, now):
            log.append(("advance", now))

    env.add_monitor(Advance())
    env.call_soon(lambda: log.append(("cb", env.now)), 10)
    env.call_soon(lambda: log.append(("cb", env.now)), 10)
    env.call_soon(lambda: log.append(("cb", env.now)), 25)
    env.run(until=100)
    # One advance per distinct timestamp, before anything at it runs,
    # plus the final advance to the run horizon.
    assert log == [("advance", 10), ("cb", 10), ("cb", 10),
                   ("advance", 25), ("cb", 25), ("advance", 100)]


def test_timeline_is_pure_advance_monitor():
    timeline = Timeline(WIDTH)
    assert hasattr(timeline, "on_advance")
    assert not hasattr(timeline, "on_step")


# -- windowed timeline -------------------------------------------------------

def _env_with_timeline(registry=None):
    env = Environment()
    timeline = Timeline(WIDTH, registry=registry)
    env.add_monitor(timeline)
    return env, timeline


def test_windows_are_half_open_and_contiguous():
    env, timeline = _env_with_timeline()
    env.call_soon(lambda: None, 2_500)
    env.run(until=3_200)
    timeline.flush(env.now)
    spans = [(w["start_ns"], w["end_ns"], w["partial"])
             for w in timeline.windows]
    assert spans == [(0, 1_000, False), (1_000, 2_000, False),
                     (2_000, 3_000, False), (3_000, 3_200, True)]
    validate_timeline(timeline.to_payload())


def test_flush_is_idempotent():
    env, timeline = _env_with_timeline()
    env.run(until=1_500)
    timeline.flush(env.now)
    n = len(timeline.windows)
    timeline.flush(env.now)
    assert len(timeline.windows) == n


def test_counter_deltas_and_rates_per_window():
    registry = MetricsRegistry()
    counter = registry.register_counter("ops")
    env, timeline = _env_with_timeline(registry)
    env.call_soon(lambda: counter.add(3), 500)
    env.call_soon(lambda: counter.add(5), 1_500)
    env.run(until=2_000)
    timeline.flush(env.now)
    cells = [w["counters"]["ops"] for w in timeline.windows]
    assert [c["delta"] for c in cells] == [3.0, 5.0]
    assert cells[0]["rate_per_s"] == pytest.approx(3.0 * 1e9 / WIDTH)


def test_boundary_update_lands_in_the_window_it_is_timestamped_in():
    # An update scheduled exactly at a window boundary belongs to the
    # window starting there: on_advance(boundary) closes the previous
    # window before the boundary's items dispatch.
    registry = MetricsRegistry()
    counter = registry.register_counter("ops")
    env, timeline = _env_with_timeline(registry)
    env.call_soon(lambda: counter.add(1), WIDTH)
    env.run(until=2 * WIDTH)
    timeline.flush(env.now)
    deltas = [w["counters"]["ops"]["delta"] for w in timeline.windows]
    assert deltas == [0.0, 1.0]


def test_windowed_percentiles_match_offline_oracle():
    """Windowed histogram digests == full recompute over per-window samples."""
    registry = MetricsRegistry()
    hist = registry.register_histogram("lat")
    env, timeline = _env_with_timeline(registry)
    # A deterministic pseudo-random spray of samples at known times.
    expected = {}
    value = 7
    for i in range(200):
        at = (i * 97) % 5_000
        value = (value * 31 + 17) % 1_000
        expected.setdefault(at // WIDTH, []).append(float(value))
        env.call_soon(lambda v=value: hist.add(v), at)
    env.run(until=5_000)
    timeline.flush(env.now)
    for window in timeline.windows:
        digest = window["histograms"]["lat"]
        oracle = sorted(expected.get(window["index"], []))
        assert digest["count"] == len(oracle)
        if oracle:
            assert digest["p50"] == percentile(oracle, 50)
            assert digest["p95"] == percentile(oracle, 95)
            assert digest["p99"] == percentile(oracle, 99)
            assert digest["mean"] == pytest.approx(sum(oracle) / len(oracle))
        else:
            assert digest["p99"] is None
    # Every sample landed in exactly one window.
    assert sum(w["histograms"]["lat"]["count"]
               for w in timeline.windows) == 200


def test_watch_rate_duplicate_name_raises():
    timeline = Timeline(WIDTH)
    timeline.watch_rate("ops", lambda: 0.0)
    with pytest.raises(ValueError, match="already registered"):
        timeline.watch_rate("ops", lambda: 0.0)


def test_sparkline_and_dashboard_render():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▁▁"
    line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert line == "▁▂▃▄▅▆▇█"
    registry = MetricsRegistry()
    counter = registry.register_counter("ops")
    env, timeline = _env_with_timeline(registry)
    env.call_soon(lambda: counter.add(4), 500)
    env.run(until=2_000)
    timeline.flush(env.now)
    text = render_dashboard(timeline)
    assert "ops" in text
    assert "windows" in text


# -- exporters and validators ------------------------------------------------

def _small_timeline():
    registry = MetricsRegistry()
    counter = registry.register_counter("ops")
    env, timeline = _env_with_timeline(registry)
    env.call_soon(lambda: counter.add(2), 300)
    env.run(until=2_500)
    timeline.flush(env.now)
    return timeline


def test_timeline_json_and_csv_round_trip():
    timeline = _small_timeline()
    payload = json.loads(to_timeline_json(timeline))
    assert payload["schema"] == "repro-timeline/v1"
    validate_timeline(payload)
    csv_text = to_timeline_csv(timeline)
    header, *rows = csv_text.strip().splitlines()
    assert header == "window,start_ns,end_ns,kind,metric,value,extra"
    assert any(",counter,ops," in row for row in rows)


def test_validate_timeline_rejects_gaps_and_bad_schema():
    timeline = _small_timeline()
    payload = timeline.to_payload()
    bad = dict(payload, schema="nope/v0")
    with pytest.raises(ValueError, match="schema"):
        validate_timeline(bad)
    windows = [dict(w) for w in payload["windows"]]
    windows[1]["start_ns"] += 1  # tear the contiguity
    with pytest.raises(ValueError):
        validate_timeline(dict(payload, windows=windows))


def test_validate_speedscope_rejects_misaligned_weights():
    attribution = LatencyAttribution()
    attribution.add_trace(1, [(0, "a"), (5, "a_end")])
    document = to_speedscope(attribution)
    validate_speedscope(document)
    broken = json.loads(json.dumps(document))
    broken["profiles"][0]["weights"].append(1.0)
    with pytest.raises(ValueError):
        validate_speedscope(broken)


# -- latency attribution -----------------------------------------------------

def test_attribution_stage_sums_tile_end_to_end_exactly():
    with TelemetrySession() as session:
        result = run_scenario("rr_vrio", seed=0)
    telemetry = session.for_testbed(result.testbed)
    attribution = telemetry.attribution()
    assert attribution.traces
    for trace in attribution.traces:
        assert sum(d for _s, d in trace.stages) == trace.end_to_end
    totals = attribution.totals()
    assert sum(totals.values()) == sum(attribution.end_to_end.samples)
    kinds = attribution.kind_totals()
    assert sum(kinds.values()) == pytest.approx(sum(totals.values()))


def test_attribution_reports_dominant_p99_stage():
    with TelemetrySession() as session:
        run_scenario("rr_vrio", seed=0)
    attribution = session.bound[0].attribution()
    dominant = attribution.dominant_at_p99()
    assert dominant is not None
    stage, share = dominant
    assert stage in attribution.stages
    assert 0.0 < share <= 1.0
    text = attribution.format()
    assert "p99 tail dominated by" in text
    folded = attribution.to_folded()
    assert folded and all(line.rsplit(" ", 1)[1].isdigit()
                          for line in folded.splitlines())


def test_attribution_empty_tracer_is_graceful():
    attribution = LatencyAttribution()
    assert attribution.dominant_at_p99() is None
    assert attribution.totals() == {}


# -- SLO probes --------------------------------------------------------------

def _window(index, start, end, histograms=None, rates=None):
    return {"index": index, "start_ns": start, "end_ns": end,
            "partial": False, "counters": {}, "gauges": {},
            "histograms": histograms or {}, "utilization": {},
            "rates": rates or {}}


def _feed(probe, windows):
    for window in windows:
        probe._on_window(None, window)


def test_slo_empty_window_emits_no_latency_violation():
    spec = SloSpec(name="s", p99_latency_ceiling_ns=100.0,
                   latency_metric="lat", window_ns=WIDTH)
    probe = SloProbe(spec)
    empty = {"count": 0, "mean": None, "p50": None, "p95": None, "p99": None}
    _feed(probe, [_window(0, 0, WIDTH, histograms={"lat": empty})])
    assert probe.violations == []
    assert probe.windows_evaluated == 1


def test_slo_p99_ceiling_violation():
    spec = SloSpec(name="s", p99_latency_ceiling_ns=100.0,
                   latency_metric="lat", window_ns=WIDTH)
    probe = SloProbe(spec)
    hot = {"count": 5, "mean": 120.0, "p50": 110.0, "p95": 140.0,
           "p99": 150.0}
    _feed(probe, [_window(0, 0, WIDTH, histograms={"lat": hot})])
    assert [v.kind for v in probe.violations] == ["p99_latency"]
    assert probe.violations[0].observed == 150.0


def test_slo_downtime_violation_spans_window_boundary():
    # Budget of 1.5 windows: neither empty window alone exceeds it, the
    # consecutive pair does.
    spec = SloSpec(name="s", max_downtime_ns=int(1.5 * WIDTH),
                   throughput_metric="ops", window_ns=WIDTH)
    probe = SloProbe(spec)
    idle = {"delta": 0.0, "rate_per_s": 0.0}
    busy = {"delta": 10.0, "rate_per_s": 10.0 * 1e9 / WIDTH}
    _feed(probe, [
        _window(0, 0, WIDTH, rates={"ops": busy}),
        _window(1, WIDTH, 2 * WIDTH, rates={"ops": idle}),
        _window(2, 2 * WIDTH, 3 * WIDTH, rates={"ops": idle}),
    ])
    assert [v.kind for v in probe.violations] == ["downtime"]
    violation = probe.violations[0]
    assert violation.window_index == 2
    assert violation.observed == 2 * WIDTH  # the full outage, not one window


def test_slo_downtime_resets_on_recovery():
    spec = SloSpec(name="s", max_downtime_ns=int(1.5 * WIDTH),
                   throughput_metric="ops", window_ns=WIDTH)
    probe = SloProbe(spec)
    idle = {"delta": 0.0, "rate_per_s": 0.0}
    busy = {"delta": 1.0, "rate_per_s": 1.0}
    _feed(probe, [
        _window(0, 0, WIDTH, rates={"ops": idle}),
        _window(1, WIDTH, 2 * WIDTH, rates={"ops": busy}),
        _window(2, 2 * WIDTH, 3 * WIDTH, rates={"ops": idle}),
    ])
    assert probe.violations == []


def test_slo_throughput_floor_and_callbacks_and_recorder_pin():
    recorder = FlightRecorder(capacity=4)
    spec = SloSpec(name="s", throughput_floor_per_s=5.0,
                   throughput_metric="ops", window_ns=WIDTH)
    probe = SloProbe(spec, recorder=recorder)
    seen = []
    probe.on_violation(seen.append)
    slow = {"delta": 1.0, "rate_per_s": 1.0}
    _feed(probe, [_window(0, 0, WIDTH, rates={"ops": slow})])
    assert [v.kind for v in probe.violations] == ["throughput"]
    assert seen == probe.violations
    # The annotation is pinned: it survives ring churn.
    for i in range(64):
        recorder.note(i, "noise")
    dump = recorder.dump(last=4)
    assert "s throughput violated" in dump
    payload = probe.to_dict()
    assert payload["spec"]["name"] == "s"
    assert len(payload["violations"]) == 1


def test_slo_prefix_metric_matches_all_workloads():
    spec = SloSpec(name="s", throughput_floor_per_s=5.0,
                   throughput_metric="w.", window_ns=WIDTH)
    probe = SloProbe(spec)
    cell = {"delta": 1.0, "rate_per_s": 2.0}
    _feed(probe, [_window(0, 0, WIDTH,
                          rates={"w.0.ops": cell, "w.1.ops": cell})])
    # 2 + 2 < 5: summed across the prefix match.
    assert probe.violations[0].observed == pytest.approx(4.0)


def test_flight_recorder_pinned_entries_survive_eviction():
    recorder = FlightRecorder(capacity=8)
    recorder.note(5, "slo", "milestone", pin=True)
    for i in range(100):
        recorder.note(10 + i, "noise", str(i))
    entries = recorder.entries()
    assert any(source == "slo" for _seq, _at, source, _d in entries)
    seqs = [seq for seq, *_rest in entries]
    assert seqs == sorted(seqs)


# -- bit-determinism across the registry -------------------------------------

def test_all_scenarios_bit_identical_with_timeline_bound():
    for name in scenario_names():
        reference = run_scenario(name, seed=0)
        with TelemetrySession(
                timeline_width_ns=DEFAULT_WINDOW_NS) as session:
            observed = run_scenario(name, seed=0)
        assert observed.metrics == reference.metrics, name
        telemetry = session.for_testbed(observed.testbed)
        assert telemetry.timeline is not None
        assert telemetry.timeline.windows
        validate_timeline(telemetry.timeline.to_payload())


def test_session_slo_spec_attaches_probe_to_scenario():
    spec = SloSpec(name="rr_slo", throughput_floor_per_s=1e12,
                   throughput_metric="workload.",
                   window_ns=DEFAULT_WINDOW_NS)
    with TelemetrySession(slos=[spec]) as session:
        run_scenario("rr_vrio", seed=0)
    telemetry = session.bound[0]
    probe = telemetry.probes[0]
    assert probe.windows_evaluated == len(telemetry.timeline.windows)
    # An absurd floor must trip on every window that saw throughput.
    assert any(v.kind == "throughput" for v in probe.violations)


# -- fault campaigns ---------------------------------------------------------

def test_storage_errors_campaign_reports_recovery_curve_and_slo():
    from repro.faults import CAMPAIGNS, execute_campaign, format_report

    report = execute_campaign(CAMPAIGNS["storage_errors"], seed=0).report
    curve = report["recovery_curve"]
    assert curve and all(w["ops"] >= 0 for w in curve)
    assert curve[0]["start_ns"] == 0
    for prev, cur in zip(curve, curve[1:]):
        assert cur["start_ns"] == prev["end_ns"]
    slo = report["slo"]
    assert slo is not None
    assert slo["violations"], "storage_errors must trip its SLO"
    # The acceptance criterion: the violation's window is captured in
    # the flight-recorder dump embedded in the report.
    assert report["flight"], "flight dump missing from report"
    flight_text = "\n".join(report["flight"])
    violation = slo["violations"][0]
    assert f"window #{violation['window_index']}" in flight_text
    assert "violated" in flight_text
    text = format_report(report)
    assert "recovery" in text
    assert "SLO" in text or "slo" in text


def test_campaign_detection_numbers_unchanged_by_timeline():
    # The golden-sensitive detection/downtime numbers ride the same
    # runs as before; the timeline must not perturb them.
    from repro.faults import run_fault_smoke

    assert run_fault_smoke(seed=0) is None


# -- CLI ---------------------------------------------------------------------

def test_observe_cli_figure_alias_and_new_flags(tmp_path, monkeypatch,
                                                capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    tjson = tmp_path / "tl.json"
    tcsv = tmp_path / "tl.csv"
    base = tmp_path / "fg"
    assert main(["observe", "fig7", "--timeline", "--attribution", "--slo",
                 "--timeline-json", str(tjson),
                 "--timeline-csv", str(tcsv),
                 "--flamegraph", str(base)]) == 0
    out = capsys.readouterr().out
    assert "timeline:" in out
    assert "p99 tail dominated by" in out
    assert "SLO rr_vrio_slo" in out
    validate_timeline(json.loads(tjson.read_text()))
    assert tcsv.read_text().startswith("window,")
    for suffix in ("folded", "cycles.folded", "speedscope.json",
                   "cycles.speedscope.json"):
        path = tmp_path / f"fg.{suffix}"
        assert path.exists(), suffix
        if suffix.endswith("speedscope.json"):
            validate_speedscope(json.loads(path.read_text()))
    # The alias resolved: the trace file carries the scenario name.
    assert (tmp_path / "rr_vrio.trace.json").exists()


def test_verify_cli_observe_smoke(capsys):
    from repro.cli import main

    assert main(["verify", "--scenario", "rr_vrio", "--observe",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("observe") and " ok" in line
               for line in out.splitlines())

