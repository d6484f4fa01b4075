"""Engine hot-path benchmark: kernel events/sec, artifact wall time, lint.

Measures the event kernel on three synthetic rows, times real figure
points and scenarios, and writes the results to ``BENCH_engine.json``:

* **Poll-batch completion storm** — 64 pollers that each complete a
  batch of 32 zero-delay descriptor hand-offs per tick and then re-arm,
  running over a deep population of far-future background timers: the
  shape of the paper's exit-less polling dispatcher completing virtio
  descriptor batches.
* **Timeline-bound storm** — the same storm re-run with a live windowed
  :class:`~repro.telemetry.timeline.Timeline` attached as an engine
  advance monitor, reporting events/sec bound vs unbound and the
  resulting overhead fraction: the cost of ``repro observe --timeline``.
* **Fabric relay storm** — frames relayed around a leaf/spine ring, the
  ``dc_scale`` switch datapath.
* **Artifact wall times** — end-to-end wall clock of fig12/fig13 sweep
  points (the unmonitored fast loop) and of monitored scenario runs.
* **Whole-tree lint** — ``repro lint --project`` over the full tree,
  cold (fresh symbol cache) and warm (populated cache): wall times,
  finding count, and the cold/warm ratio the incremental cache buys
  (``--check`` requires >=5x and no new findings).

``--check`` compares a fresh measurement against a committed baseline
and fails on a >10% events/sec regression in any comparable row.
``--quick`` shrinks event counts and background depth for CI smoke
runs; quick numbers are not meant to be committed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .sim import Environment

__all__ = [
    "run_engine_bench",
    "run_engine_smoke",
    "check_regression",
    "validate_payload",
    "write_payload",
    "main",
]

SCHEMA = "repro-bench-engine/v2"
DEFAULT_OUT = "BENCH_engine.json"
REGRESSION_TOLERANCE = 0.10

# Background timers land far beyond the measured window so they load the
# queue without ever firing; the stride spreads them over distinct keys.
_BG_DELAY = 500_000_000
_BG_STRIDE = 37
_RUN_UNTIL = 400_000_000
_STORM_LANES = 64
_STORM_BATCH = 32
# Window width for the timeline-overhead row: 1 ms keeps window closes
# frequent relative to the storm's ~30 ms of simulated activity.
_BENCH_WINDOW_NS = 1_000_000


def _noop() -> None:
    return None


class _PollLane:
    """One poll dispatch completes a batch of descriptors (zero-delay
    hand-offs), then re-arms itself for the next poll tick."""

    __slots__ = ("env", "left", "batch")

    def __init__(self, env: Environment, left: int, batch: int) -> None:
        self.env = env
        self.left = left
        self.batch = batch

    def __call__(self) -> None:
        left = self.left
        if left <= 0:
            return
        self.left = left - self.batch - 1
        cs = self.env.call_soon
        for _ in range(self.batch):
            cs(_noop)
        cs(self, 1 + (left & 2047))  # next poll tick


class _FabricBudget:
    """Shared hop budget for one fabric storm measurement."""

    __slots__ = ("left",)

    def __init__(self, left: int) -> None:
        self.left = left


class _FabricHost:
    """One relay host on a leaf: every received frame is immediately
    re-sent to the next host around the ring, so each hop drives the
    full leaf -> spine -> leaf switch datapath (ingress, MAC lookup,
    batched egress flush, trunk serialization)."""

    __slots__ = ("budget", "endpoint", "mac", "next_mac")

    def __init__(self, budget: _FabricBudget, endpoint, mac,
                 next_mac) -> None:
        self.budget = budget
        self.endpoint = endpoint
        self.mac = mac
        self.next_mac = next_mac

    def __call__(self, frame) -> None:
        from .net.frame import EthernetFrame

        budget = self.budget
        if budget.left <= 0:
            return
        budget.left -= 1
        self.endpoint.transmit(EthernetFrame(
            src=self.mac, dst=self.next_mac, payload=None,
            payload_bytes=64, kind="storm"))


_FABRIC_RACKS = 4
_FABRIC_TOKENS = 256


def _fabric_storm_rate(hops: int) -> float:
    """Relay-ring storm over a 4-leaf/1-spine fabric (dc_scale shape).

    ``hops`` host-to-host messages, each crossing two leaves and the
    spine; ~256 frames stay in flight so egress batching and the flush
    freelist are continuously exercised.  Rate is hops/sec, not raw
    engine events/sec — comparable release-to-release like every row.
    """
    from .hw.fabric import LeafSpineFabric
    from .hw.link import Link
    from .net.frame import EthernetFrame, MacAddress

    env = Environment()
    fabric = LeafSpineFabric(env, _FABRIC_RACKS, 1, downlinks_per_leaf=1,
                             downlink_gbps=10.0, name="storm-fabric")
    budget = _FabricBudget(hops)
    macs = [MacAddress(f"storm-h{r}") for r in range(_FABRIC_RACKS)]
    endpoints = []
    for r in range(_FABRIC_RACKS):
        link = Link(env, gbps=10.0, name=f"storm{r}")
        end = fabric.host_port(r, link)
        fabric.learn_host(r, macs[r], link)
        endpoints.append(end)
    for r in range(_FABRIC_RACKS):
        host = _FabricHost(budget, endpoints[r], macs[r],
                           macs[(r + 1) % _FABRIC_RACKS])
        endpoints[r].attach_receiver(host)
    for t in range(_FABRIC_TOKENS):
        r = t % _FABRIC_RACKS
        endpoints[r].transmit(EthernetFrame(
            src=macs[r], dst=macs[(r + 1) % _FABRIC_RACKS], payload=None,
            payload_bytes=64, kind="storm"))
    return hops / _timed_run(env, _RUN_UNTIL)


def _fill_background(env: Environment, background: int) -> None:
    cs = env.call_soon
    for i in range(background):
        cs(_noop, _BG_DELAY + i * _BG_STRIDE)


def _timed_run(env: Environment, until: int) -> float:
    t0 = time.perf_counter()
    env.run(until=until)
    return time.perf_counter() - t0


def _storm_rate(events: int, background: int, batch: int,
                timeline: bool = False) -> float:
    """Events/sec of the poll-batch completion storm.

    With ``timeline`` a live windowed timeline is bound: binding flips
    the engine onto the monitored run loop and pays one window close per
    ``_BENCH_WINDOW_NS`` of simulated time — the real cost of ``repro
    observe --timeline`` relative to an unbound run.
    """
    env = Environment()
    if timeline:
        from .telemetry import Timeline

        bound = Timeline(_BENCH_WINDOW_NS)
        progress = [0.0]
        bound.watch_rate("storm_events", lambda: progress[0])
        env.add_monitor(bound)
    _fill_background(env, background)
    per_lane = events // _STORM_LANES
    for i in range(_STORM_LANES):
        env.call_soon(_PollLane(env, per_lane, batch), 1 + i)
    rate = events / _timed_run(env, _RUN_UNTIL)
    if timeline:
        bound.flush(env.now)
    return rate


def _row(name: str, mode: str, path: str, rate: float, *, events: int,
         background: int, lanes: int, batch: Optional[int] = None,
         note: str = "") -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "name": name,
        "mode": mode,
        "path": path,
        "lanes": lanes,
        "events": events,
        "background": background,
        "batch": batch,
        "events_per_sec": round(rate, 1),
    }
    if note:
        row["note"] = note
    return row


def _artifact_row(scenario: str, path: str, seed: int = 0) -> Dict[str, Any]:
    """Monitored scenario run: wall time and dispatched steps."""
    from .testing.scenarios import run_scenario

    t0 = time.perf_counter()
    result = run_scenario(scenario, seed=seed)
    wall = time.perf_counter() - t0
    return {
        "scenario": scenario,
        "path": path,
        "kind": "monitored-scenario",
        "wall_s": round(wall, 4),
        "sim_steps": int(result.metrics.get("sim.steps", 0)),
    }


def _point_row(name: str, path: str, point_fn: Callable[[dict], Any],
               params: dict) -> Dict[str, Any]:
    """Wall time of one real (unmonitored) figure sweep point.

    This is what ``repro run fig12``/``fig13`` actually executes per
    cell — no monitors attached, so it exercises the fast run loop.
    """
    t0 = time.perf_counter()
    point_fn(dict(params))
    wall = time.perf_counter() - t0
    return {
        "scenario": name,
        "path": path,
        "kind": "figure-point",
        "params": dict(params),
        "wall_s": round(wall, 4),
    }


def _lint_row() -> Dict[str, Any]:
    """Whole-tree project-lint wall time, cold vs warm symbol cache.

    Times :func:`repro.lint.build_project` — parse + summary extraction
    + indexing, the part the incremental symbol cache governs — against
    a fresh private cache directory: cold extracts every summary, warm
    replays all of them from the cache.  ``warmup_x`` is the cold/warm
    ratio the cache is accountable for — the acceptance criterion is
    >=5x, gated by ``--check``.  The SIM6xx rules then run once over the
    warm analysis for the finding count (rule evaluation is identical
    cold or warm, so timing it would only dilute the ratio).
    """
    import shutil
    import tempfile
    from pathlib import Path

    from .lint import build_project, run_project_rules

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-lint-"))
    try:
        t0 = time.perf_counter()
        cold = build_project(cache_dir=cache_dir)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = build_project(cache_dir=cache_dir)
        warm_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if cold.cache_hits or warm.cache_misses:
        raise RuntimeError(
            f"lint bench cache not cold/warm as expected: cold hits "
            f"{cold.cache_hits}, warm misses {warm.cache_misses}")
    result = run_project_rules(warm)
    return {
        "name": "lint_tree",
        "files": len(warm.summaries),
        "findings": len(result.all_findings()),
        "cold_wall_s": round(cold_s, 4),
        "warm_wall_s": round(warm_s, 4),
        "warmup_x": round(cold_s / warm_s, 2) if warm_s else 0.0,
    }


LINT_WARMUP_TARGET = 5.0


def run_engine_bench(quick: bool = False,
                     progress: Optional[Callable[[str], None]] = None
                     ) -> Dict[str, Any]:
    """Run every row and return the BENCH_engine payload dict."""
    say = progress or (lambda _msg: None)
    if quick:
        storm_events, background = 200_000, 100_000
    else:
        storm_events, background = 2_000_000, 1_000_000

    rows: List[Dict[str, Any]] = []
    say(f"completion storm, batch {_STORM_BATCH} ...")
    unbound = _storm_rate(storm_events, background, _STORM_BATCH)
    rows.append(_row(
        f"completion_storm_b{_STORM_BATCH}", "poll-batch-storm",
        "fig12+fig13", unbound, events=storm_events, background=background,
        lanes=_STORM_LANES, batch=_STORM_BATCH,
        note=(f"{_STORM_LANES} pollers each completing {_STORM_BATCH} "
              "zero-delay descriptor hand-offs per tick over a deep "
              "background timer population (virtio ring completion shape)")))
    say(f"timeline-bound completion storm, batch {_STORM_BATCH} ...")
    bound = _storm_rate(storm_events, background, _STORM_BATCH,
                        timeline=True)
    row = _row(
        f"timeline_storm_b{_STORM_BATCH}", "timeline-storm", "observe", bound,
        events=storm_events, background=background, lanes=_STORM_LANES,
        batch=_STORM_BATCH,
        note=(f"the batch-{_STORM_BATCH} storm with a live windowed timeline "
              f"bound ({_BENCH_WINDOW_NS} ns windows): monitored-loop + "
              "window-close cost of repro observe --timeline vs the "
              "unbound fast loop"))
    row["unbound_events_per_sec"] = round(unbound, 1)
    row["timeline_overhead"] = round(1.0 - bound / unbound, 4)
    rows.append(row)
    fabric_hops = 50_000 if quick else 500_000
    say("fabric relay storm, 4-leaf/1-spine ...")
    rows.append(_row(
        "fabric_storm_r4", "fabric-storm", "dc_scale",
        _fabric_storm_rate(fabric_hops),
        events=fabric_hops, background=0, lanes=_FABRIC_RACKS,
        note=(f"{_FABRIC_TOKENS} frames relayed around a "
              f"{_FABRIC_RACKS}-leaf/1-spine ring; every hop crosses two "
              "switches through the hoisted ingress closure and batched "
              "egress flush (events = host-to-host hops)")))

    from .experiments.throughput_experiments import _macro_point
    from .experiments.scalability_experiments import _fig13b_point
    from .sim import ms

    artifacts = []
    point_specs = [
        ("fig12:apache/vrio", "fig12", _macro_point,
         {"benchmark": "apache", "model": "vrio",
          "n_vms": 2 if quick else 4, "run_ns": ms(8 if quick else 30)}),
        ("fig13:stream/vrio", "fig13", _fig13b_point,
         {"workers": 2, "n_vms": 4 if quick else 8,
          "run_ns": ms(8 if quick else 40)}),
    ]
    for name, path, point_fn, params in point_specs:
        say(f"artifact sweep point, {name} ...")
        artifacts.append(_point_row(name, path, point_fn, params))
    artifact_specs = [("apache_vrio", "fig12")]
    if not quick:
        artifact_specs.append(("scalability_vrio", "fig13"))
    for scenario, path in artifact_specs:
        say(f"artifact wall time, {scenario} ({path}) ...")
        artifacts.append(_artifact_row(scenario, path))

    say("whole-tree project lint, cold + warm cache ...")
    lint = _lint_row()

    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "rows": rows,
        "artifacts": artifacts,
        "lint": lint,
    }


def run_engine_smoke(baseline_path: str = DEFAULT_OUT) -> Optional[str]:
    """Quick sanity used by ``repro verify --engine``.

    A small completion storm must run to completion, and the committed
    baseline file — when present — must be schema-valid.  Returns a
    problem string or None.
    """
    _storm_rate(100_000, 50_000, _STORM_BATCH)
    try:
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except OSError:
        return None  # no committed baseline to validate
    except ValueError as exc:
        return f"{baseline_path} is not valid JSON: {exc}"
    problems = validate_payload(baseline)
    if problems:
        return f"{baseline_path}: " + "; ".join(problems[:3])
    return None


# -- baseline gate -----------------------------------------------------------

_COMPARABLE_KEYS = ("mode", "events", "background", "batch", "lanes")


def check_regression(current: Dict[str, Any], baseline: Dict[str, Any],
                     tolerance: float = REGRESSION_TOLERANCE) -> List[str]:
    """Return regression messages (empty = gate passes).

    Events/sec of each row present in both payloads *at the same
    scale* must be within ``tolerance`` of the baseline.  Rows only
    in the baseline count as regressions (coverage must not shrink);
    rows at a different scale are skipped (quick vs full runs are not
    comparable).
    """
    problems: List[str] = []
    current_rows = {r["name"]: r for r in current.get("rows", [])}
    for base in baseline.get("rows", []):
        row = current_rows.get(base["name"])
        if row is None:
            problems.append(f"{base['name']}: in baseline but not measured")
            continue
        if any(row.get(k) != base.get(k) for k in _COMPARABLE_KEYS):
            continue
        cur = row["events_per_sec"]
        ref = base["events_per_sec"]
        if cur < ref * (1.0 - tolerance):
            drop = (1.0 - cur / ref) * 100.0
            problems.append(
                f"{base['name']}: {cur:,.0f} ev/s vs baseline "
                f"{ref:,.0f} ev/s (-{drop:.1f}%, tolerance "
                f"{tolerance * 100:.0f}%)")
    base_lint = baseline.get("lint")
    cur_lint = current.get("lint")
    if base_lint is not None:
        if cur_lint is None:
            problems.append("lint_tree: in baseline but not measured")
        else:
            # Wall times are machine-dependent; what must not regress is
            # what the tree and the cache are accountable for: a clean
            # tree stays clean, and warm runs stay >=5x faster than cold.
            if cur_lint["findings"] > base_lint["findings"]:
                problems.append(
                    f"lint_tree: {cur_lint['findings']} finding(s) vs "
                    f"baseline {base_lint['findings']}")
            if cur_lint["warmup_x"] < LINT_WARMUP_TARGET:
                problems.append(
                    f"lint_tree: warm cache only {cur_lint['warmup_x']:.1f}x "
                    f"faster than cold (target {LINT_WARMUP_TARGET:.0f}x)")
    return problems


def validate_payload(payload: Dict[str, Any]) -> List[str]:
    """Schema-check a BENCH_engine payload; returns problem strings."""
    problems: List[str] = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, want {SCHEMA!r}")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows missing or empty")
        rows = []
    for row in rows:
        name = row.get("name", "<unnamed>")
        for key in ("name", "mode", "path", "lanes", "events", "background",
                    "events_per_sec"):
            if key not in row:
                problems.append(f"row {name}: missing {key!r}")
        rate = row.get("events_per_sec")
        if not isinstance(rate, (int, float)) or rate <= 0:
            problems.append(f"row {name}: bad events_per_sec")
        if row.get("mode") == "timeline-storm":
            for key in ("unbound_events_per_sec", "timeline_overhead"):
                if not isinstance(row.get(key), (int, float)):
                    problems.append(f"row {name}: missing {key!r}")
    artifacts = payload.get("artifacts")
    if not isinstance(artifacts, list) or not artifacts:
        problems.append("artifacts missing or empty")
        artifacts = []
    for art in artifacts:
        scenario = art.get("scenario", "<unnamed>")
        for key in ("scenario", "path", "wall_s"):
            if key not in art:
                problems.append(f"artifact {scenario}: missing {key!r}")
    lint = payload.get("lint")
    if lint is not None:
        for key in ("name", "files", "findings", "cold_wall_s",
                    "warm_wall_s", "warmup_x"):
            if key not in lint:
                problems.append(f"lint: missing {key!r}")
        if lint.get("files", 0) <= 0:
            problems.append("lint: no files measured")
        if not isinstance(lint.get("findings"), int):
            problems.append("lint: findings is not an integer")
    return problems


def write_payload(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def _print_report(payload: Dict[str, Any], out=sys.stdout) -> None:
    for row in payload["rows"]:
        line = (f"  {row['name']:<24} "
                f"{row['events_per_sec'] / 1e6:6.3f} M/s")
        overhead = row.get("timeline_overhead")
        if overhead is not None:
            line += f"  timeline overhead {overhead * 100:.1f}%"
        out.write(line + "\n")
    for art in payload["artifacts"]:
        out.write(f"  {art['scenario']:<24} {art['wall_s']:6.3f} s\n")
    lint = payload.get("lint")
    if lint is not None:
        out.write(
            f"  {lint['name']:<24} cold {lint['cold_wall_s']:6.3f} s    "
            f"warm {lint['warm_wall_s']:6.3f} s    "
            f"warmup {lint['warmup_x']:.2f}x  "
            f"({lint['files']} files, {lint['findings']} findings)\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro bench --engine`` (also runnable directly)."""
    parser = argparse.ArgumentParser(prog="repro bench --engine")
    parser.add_argument("--quick", action="store_true",
                        help="smaller scales for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="fail on >10%% events/sec regression vs the "
                             "committed baseline instead of overwriting it")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output (and --check baseline) path")
    args = parser.parse_args(argv)

    payload = run_engine_bench(
        quick=args.quick, progress=lambda msg: print(f"[bench-engine] {msg}"))
    _print_report(payload)

    if args.check:
        try:
            with open(args.out, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"FAIL: cannot load baseline {args.out}: {exc}")
            return 1
        problems = check_regression(payload, baseline)
        if problems:
            print("FAIL: events/sec regression vs baseline:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"ok: no events/sec regression vs {args.out}")
        return 0

    write_payload(payload, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
