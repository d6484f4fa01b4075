"""Exporters: metrics and traces in machine- and human-readable forms.

Three formats, all dependency-free:

* ``to_metrics_json`` / ``to_metrics_csv`` — the flat registry snapshot,
  for diffing runs or feeding plotting scripts;
* ``to_chrome_trace_json`` — the Tracer's span/point stream as a Chrome
  ``trace_event`` document, loadable in chrome://tracing or Perfetto;
* ``text_report`` — a terminal report combining the stage-latency
  breakdown with the registry's headline numbers.

``validate_metrics`` and ``validate_chrome_trace`` are the schema checks
behind ``repro verify --telemetry``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from .attribution import attribute

__all__ = [
    "to_metrics_json",
    "to_metrics_csv",
    "to_chrome_trace_json",
    "to_timeline_json",
    "to_timeline_csv",
    "text_report",
    "validate_metrics",
    "validate_chrome_trace",
    "validate_timeline",
    "validate_speedscope",
]

# Every trace_event record must carry these keys to render.
_CHROME_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")
_CHROME_PHASES = ("X", "B", "E", "i")


def to_metrics_json(snapshot: Dict[str, float], indent: int = 2) -> str:
    """The metrics snapshot as sorted, stable JSON."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def to_metrics_csv(snapshot: Dict[str, float]) -> str:
    """The metrics snapshot as two-column ``metric,value`` CSV."""
    lines = ["metric,value"]
    for name in sorted(snapshot):
        value = snapshot[name]
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{name},{rendered}")
    return "\n".join(lines) + "\n"


def to_chrome_trace_json(tracer: Any) -> str:
    """The tracer's records as a Chrome ``trace_event`` JSON document."""
    return json.dumps(tracer.to_chrome_trace(), indent=1)


def text_report(telemetry: Any, title: str = "") -> str:
    """Human-readable run report: stages, models, sidecores, headline I/O."""
    lines: List[str] = []
    if title:
        lines += [title, "=" * len(title), ""]
    lines.append(attribute(telemetry.tracer).stage_table())
    snapshot = telemetry.registry.snapshot()
    interesting = [name for name in sorted(snapshot)
                   if name.startswith(("stats.", "sidecores.", "ports.",
                                       "model", "storage."))
                   and not name.endswith(("_ns",))]
    if interesting:
        lines += ["", "key metrics"]
        for name in interesting:
            value = snapshot[name]
            if isinstance(value, float) and not value.is_integer():
                lines.append(f"  {name:54s} {value:12.4f}")
            else:
                lines.append(f"  {name:54s} {int(value):12d}")
    lines += ["", f"metrics registered: {len(snapshot)}   "
                  f"trace events: {len(telemetry.tracer.events)}   "
                  f"spans: {len(telemetry.tracer.spans)}   "
                  f"flight entries: {telemetry.recorder.recorded}"]
    return "\n".join(lines)


def validate_metrics(snapshot: Dict[str, float]) -> None:
    """Raise ``ValueError`` unless the snapshot is a non-empty, flat
    mapping of dotted names to finite numbers."""
    if not isinstance(snapshot, dict) or not snapshot:
        raise ValueError("metrics snapshot is empty")
    for name, value in snapshot.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad metric name: {name!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"metric {name!r} has non-numeric value "
                             f"{value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")


def to_timeline_json(timeline: Any, indent: int = 2) -> str:
    """A timeline's windows as a ``repro-timeline/v1`` JSON document."""
    return json.dumps(timeline.to_payload(), indent=indent, sort_keys=True)


def to_timeline_csv(timeline: Any) -> str:
    """Long-form CSV: one row per (window, metric series).

    Columns: window index, start/end, series kind, metric name, and the
    windowed value (counters/rates report their per-second rate plus the
    raw delta; histograms their windowed count and p50/p95/p99).
    """
    lines = ["window,start_ns,end_ns,kind,metric,value,extra"]

    def row(window: Dict[str, Any], kind: str, name: str, value: Any,
            extra: str = "") -> None:
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{window['index']},{window['start_ns']},"
                     f"{window['end_ns']},{kind},{name},{rendered},{extra}")

    for window in timeline.windows:
        for name in sorted(window["counters"]):
            cell = window["counters"][name]
            row(window, "counter", name, cell["rate_per_s"],
                f"delta={cell['delta']:g}")
        for name in sorted(window["rates"]):
            cell = window["rates"][name]
            row(window, "rate", name, cell["rate_per_s"],
                f"delta={cell['delta']:g}")
        for name in sorted(window["gauges"]):
            row(window, "gauge", name, window["gauges"][name])
        for name in sorted(window["utilization"]):
            cell = window["utilization"][name]
            row(window, "utilization", name, cell["busy_fraction"],
                f"useful={cell['useful_fraction']:g}")
        for name in sorted(window["histograms"]):
            digest = window["histograms"][name]
            if digest["count"]:
                row(window, "histogram", name, digest["p99"],
                    f"count={digest['count']};p50={digest['p50']:g};"
                    f"p95={digest['p95']:g}")
            else:
                row(window, "histogram", name, 0, "count=0")
    return "\n".join(lines) + "\n"


_WINDOW_GROUPS = ("counters", "gauges", "histograms", "utilization", "rates")


def validate_timeline(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed
    ``repro-timeline/v1`` document: contiguous half-open windows with
    per-kind series groups and finite numbers throughout."""
    if not isinstance(payload, dict):
        raise ValueError("timeline payload must be a JSON object")
    if payload.get("schema") != "repro-timeline/v1":
        raise ValueError(f"bad timeline schema: {payload.get('schema')!r}")
    width = payload.get("width_ns")
    if not isinstance(width, int) or width <= 0:
        raise ValueError(f"bad timeline width: {width!r}")
    windows = payload.get("windows")
    if not isinstance(windows, list):
        raise ValueError("timeline lacks a windows list")
    prev_end = None
    for index, window in enumerate(windows):
        if not isinstance(window, dict):
            raise ValueError(f"window {index} is not an object")
        if window.get("index") != index:
            raise ValueError(f"window {index} misnumbered: "
                             f"{window.get('index')!r}")
        start, end = window.get("start_ns"), window.get("end_ns")
        if not isinstance(start, int) or not isinstance(end, int):
            raise ValueError(f"window {index} has non-integer bounds")
        if end <= start:
            raise ValueError(f"window {index} is empty or inverted: "
                             f"[{start}, {end})")
        if prev_end is not None and start != prev_end:
            raise ValueError(f"window {index} not contiguous: starts at "
                             f"{start}, previous ended at {prev_end}")
        if not window.get("partial") and (end - start) != width:
            raise ValueError(f"full window {index} has width {end - start}, "
                             f"expected {width}")
        prev_end = end
        for group in _WINDOW_GROUPS:
            series = window.get(group)
            if not isinstance(series, dict):
                raise ValueError(f"window {index} lacks group {group!r}")
            for name, cell in series.items():
                _check_cell(index, group, name, cell)
    json.loads(json.dumps(payload))


def _check_cell(index: int, group: str, name: str, cell: Any) -> None:
    if group == "gauges":
        values = {name: cell}
    elif not isinstance(cell, dict):
        raise ValueError(f"window {index} {group}[{name!r}] is not an object")
    else:
        values = cell
    for key, value in values.items():
        if value is None and group == "histograms":
            continue  # empty-window stats are None by design
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"window {index} {group}[{name!r}].{key} is "
                             f"non-numeric: {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"window {index} {group}[{name!r}].{key} is "
                             f"not finite")


def validate_speedscope(document: dict) -> None:
    """Raise ``ValueError`` unless ``document`` is a loadable speedscope
    sampled-profile file: frames referenced by every sample exist and
    weights align one-to-one with samples."""
    if not isinstance(document, dict):
        raise ValueError("speedscope document must be a JSON object")
    frames = document.get("shared", {}).get("frames")
    if not isinstance(frames, list):
        raise ValueError("speedscope document lacks shared.frames")
    for frame in frames:
        if not isinstance(frame, dict) or not frame.get("name"):
            raise ValueError(f"bad speedscope frame: {frame!r}")
    profiles = document.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("speedscope document lacks profiles")
    for profile in profiles:
        if profile.get("type") != "sampled":
            raise ValueError(f"unsupported profile type: "
                             f"{profile.get('type')!r}")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError("sampled profile lacks samples/weights")
        if len(samples) != len(weights):
            raise ValueError(f"samples/weights length mismatch: "
                             f"{len(samples)} vs {len(weights)}")
        for stack in samples:
            for idx in stack:
                if not isinstance(idx, int) or not 0 <= idx < len(frames):
                    raise ValueError(f"sample references missing frame "
                                     f"{idx!r}")
        for weight in weights:
            if (isinstance(weight, bool)
                    or not isinstance(weight, (int, float))
                    or weight < 0 or not math.isfinite(weight)):
                raise ValueError(f"bad sample weight: {weight!r}")
    json.loads(json.dumps(document))


def validate_chrome_trace(document: dict) -> None:
    """Raise ``ValueError`` unless ``document`` is a loadable Chrome
    ``trace_event`` object-format document."""
    if not isinstance(document, dict):
        raise ValueError("chrome trace must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace lacks a traceEvents list")
    for record in events:
        if not isinstance(record, dict):
            raise ValueError(f"trace event is not an object: {record!r}")
        missing = [key for key in _CHROME_REQUIRED_KEYS if key not in record]
        if missing:
            raise ValueError(f"trace event missing {missing}: {record!r}")
        if record["ph"] not in _CHROME_PHASES:
            raise ValueError(f"unknown phase {record['ph']!r}")
        if record["ph"] == "X" and "dur" not in record:
            raise ValueError(f"complete event lacks dur: {record!r}")
        if not isinstance(record["ts"], (int, float)) or record["ts"] < 0:
            raise ValueError(f"bad timestamp in {record!r}")
    # The document must survive a JSON round trip.
    json.loads(json.dumps(document))
