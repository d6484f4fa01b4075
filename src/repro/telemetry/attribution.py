"""Per-request latency attribution: queueing vs. service per stage.

Every traced request leaves a trail of *markers* on the clock: point
events contribute one marker each, spans contribute a start marker (the
span's name) and an end marker (``<name>_end``).  Consecutive markers of
one trace delimit a **stage**, and attribution classifies each —

* the interval from a span's start marker straight to its own end marker
  is named after the span (``iohost_service``, ``device_io``,
  ``vhost_service``) and is **service** time: a component was actively
  working on the request;
* any other interval is named ``a→b`` after its two bounding markers and
  is **queueing** time: the request sat in a ring, channel, or completion
  path between components (``guest_tx→iohost_service`` is the
  guest-ring-to-sidecore hop).

— and answers "which stage dominates at p99": among the *tail* traces
(end-to-end at or above the p99), the stage with the largest share of
total latency.  Because stages tile the marker range of each trace
exactly, per-stage sums equal the end-to-end sum (last minus first
marker) with no rounding, per trace and in aggregate.

The same module exports simulated-cycles-per-component flamegraphs from
the cores' cycle ledgers (``Core.cycles_by_tag``), in both collapsed
("folded") stack format and speedscope JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim import Histogram

__all__ = [
    "QUEUEING",
    "SERVICE",
    "END_TO_END",
    "LatencyAttribution",
    "attribute",
    "stage_kind",
    "trace_markers",
    "cycles_by_component",
    "to_folded_stacks",
    "to_speedscope",
]

QUEUEING = "queueing"
SERVICE = "service"
END_TO_END = "end_to_end"


def trace_markers(tracer: Any) -> Dict[Any, List[Tuple[int, str]]]:
    """Every trace's time-ordered ``(at_ns, label)`` markers, by trace id.

    One pass over the tracer's records groups them by trace; traces come
    in first-seen order (``tracer.trace_ids()``).  Ties on the clock are
    broken by recording order (events before the spans recorded after
    them; each span takes two sequence numbers), which is deterministic.
    """
    keyed: Dict[Any, List[Tuple[int, int, str]]] = {}
    seq = 0
    for event in tracer.events:
        keyed.setdefault(event.trace_id, []).append(
            (event.at_ns, seq, event.name))
        seq += 1
    for span in tracer.spans:
        marks = keyed.setdefault(span.trace_id, [])
        marks.append((span.start_ns, seq, span.name))
        if span.end_ns is not None:
            marks.append((span.end_ns, seq + 1, f"{span.name}_end"))
        seq += 2
    grouped: Dict[Any, List[Tuple[int, str]]] = {}
    for trace_id, marks in keyed.items():
        marks.sort()  # (at_ns, seq): seq is unique, labels never compare
        grouped[trace_id] = [(at_ns, label) for at_ns, _seq, label in marks]
    return grouped


def stage_kind(stage: str) -> str:
    """Classify a stage name: span stages are service, hops are queueing."""
    return QUEUEING if "→" in stage else SERVICE


@dataclass
class TraceAttribution:
    """One request's exact stage decomposition."""

    trace_id: Any
    stages: List[Tuple[str, int]] = field(default_factory=list)
    end_to_end: int = 0


class LatencyAttribution:
    """Aggregated queueing/service decomposition across many traces."""

    def __init__(self) -> None:
        # Insertion-ordered: stages appear in first-seen datapath order.
        self.stages: Dict[str, Histogram] = {}
        self.end_to_end = Histogram(END_TO_END)
        self.traces: List[TraceAttribution] = []

    def add_trace(self, trace_id: Any,
                  markers: List[Tuple[int, str]]) -> None:
        """Fold one trace's markers in (ignored if fewer than two)."""
        if len(markers) < 2:
            return
        trace = TraceAttribution(trace_id)
        for (t0, a), (t1, b) in zip(markers, markers[1:]):
            stage = a if b == f"{a}_end" else f"{a}→{b}"
            duration = t1 - t0
            trace.stages.append((stage, duration))
            histogram = self.stages.get(stage)
            if histogram is None:
                histogram = self.stages[stage] = Histogram(stage)
            histogram.add(duration)
        trace.end_to_end = markers[-1][0] - markers[0][0]
        self.end_to_end.add(trace.end_to_end)
        self.traces.append(trace)

    # -- aggregate views ---------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Total nanoseconds per stage (sums tile the end-to-end sum)."""
        return {name: float(sum(h.samples))
                for name, h in self.stages.items()}

    def kind_totals(self) -> Dict[str, float]:
        """Total nanoseconds attributed to queueing vs. service."""
        out = {QUEUEING: 0.0, SERVICE: 0.0}
        totals = self.totals()
        for name in sorted(totals):
            out[stage_kind(name)] += totals[name]
        return out

    def dominant_at_p99(self) -> Optional[Tuple[str, float]]:
        """The stage carrying the largest share of tail latency.

        Tail = traces whose end-to-end is at or above the p99 of the
        end-to-end distribution.  Returns ``(stage, share)`` where share
        is the stage's fraction of the tail traces' total latency, or
        None with no traces.
        """
        if not self.traces:
            return None
        threshold = self.end_to_end.percentile(99)
        tail = [t for t in self.traces if t.end_to_end >= threshold]
        totals: Dict[str, float] = {}
        grand = 0.0
        for trace in tail:
            for stage, duration in trace.stages:
                totals[stage] = totals.get(stage, 0.0) + duration
                grand += duration
        if not grand:
            return None
        stage = max(sorted(totals), key=lambda s: totals[s])
        return stage, totals[stage] / grand

    def summarize(self) -> Dict[str, Any]:
        """JSON-ready digest: per-stage stats, kind split, tail verdict."""
        stages = []
        for name, histogram in self.stages.items():
            digest = histogram.summary()
            digest["stage"] = name
            digest["kind"] = stage_kind(name)
            digest["total_ns"] = float(sum(histogram.samples))
            stages.append(digest)
        dominant = self.dominant_at_p99()
        return {
            "schema": "repro-attribution/v1",
            "traces": len(self.traces),
            "stages": stages,
            "end_to_end": self.end_to_end.summary(),
            "kind_totals_ns": self.kind_totals(),
            "dominant_at_p99": (
                {"stage": dominant[0], "share": dominant[1]}
                if dominant else None),
        }

    def _table(self, title: str, stats: Tuple[str, ...],
               attributed: bool) -> str:
        """Title, header and one row per stage plus ``end_to_end``.

        Every row shows the count and ``stats`` in us; the attributed
        table adds each stage's kind and total.
        """
        def row(name: str, kind: str, count: str, cells: str,
                total: str) -> str:
            if not attributed:
                return f"{name:38s} {count}{cells}"
            return f"{name:38s} {kind:>8s} {count}{cells} {total}"

        lines = [title, row("stage", "kind", f"{'count':>7s}",
                            "".join(f" {stat:>9s}" for stat in stats),
                            f"{'total':>11s}")]
        rows = [(name, stage_kind(name), histogram)
                for name, histogram in self.stages.items()]
        rows.append((END_TO_END, "", self.end_to_end))
        for name, kind, histogram in rows:
            d = histogram.summary()
            lines.append(row(
                name, kind, f"{d['count']:7d}",
                "".join(f" {d[stat] / 1000.0:9.2f}" for stat in stats),
                f"{sum(histogram.samples) / 1000.0:11.1f}"))
        return "\n".join(lines)

    def stage_table(self) -> str:
        """Per-stage latency distribution table (values in us)."""
        if not self.traces:
            return "stage breakdown: no traced requests"
        return self._table(
            f"stage latency breakdown ({len(self.traces)} traced requests, "
            f"us)", ("mean", "p50", "p95", "p99", "max"), attributed=False)

    def format(self) -> str:
        """Aligned text table (values in us) plus the tail verdict."""
        if not self.traces:
            return "latency attribution: no traced requests"
        lines = [self._table(
            f"latency attribution ({len(self.traces)} traced requests, us)",
            ("mean", "p50", "p99"), attributed=True)]
        kinds = self.kind_totals()
        grand = kinds[QUEUEING] + kinds[SERVICE]
        if grand:
            lines.append(
                f"split: service {kinds[SERVICE] / grand:.1%} / "
                f"queueing {kinds[QUEUEING] / grand:.1%}")
        dominant = self.dominant_at_p99()
        if dominant:
            lines.append(
                f"p99 tail dominated by {dominant[0]} "
                f"({dominant[1]:.1%} of tail latency)")
        return "\n".join(lines)

    # -- flamegraph exports ------------------------------------------------

    def to_folded(self) -> str:
        """Collapsed-stack lines: ``request;<kind>;<stage> <total_ns>``."""
        lines: List[str] = []
        for name, histogram in self.stages.items():
            total = int(sum(histogram.samples))
            lines.append(f"request;{stage_kind(name)};{name} {total}")
        return "\n".join(lines) + ("\n" if lines else "")


def attribute(tracer: Any, trace_ids: Optional[List[Any]] = None
              ) -> LatencyAttribution:
    """Build the attribution over ``trace_ids`` (default: every trace)."""
    attribution = LatencyAttribution()
    markers = trace_markers(tracer)
    for trace_id in markers if trace_ids is None else trace_ids:
        attribution.add_trace(trace_id, markers.get(trace_id, []))
    return attribution


# -- simulated cycles per component ----------------------------------------


def cycles_by_component(testbed: Any) -> List[Tuple[str, str, str, int]]:
    """Flatten every core's cycle ledger into stack tuples.

    Returns ``(group, core, tag, cycles)`` rows in deterministic order,
    walking the same components :func:`instrument_testbed` registers:
    VM vCPUs, sidecores/IOhost workers, and client cores.
    """
    rows: List[Tuple[str, str, str, int]] = []

    def emit(group: str, label: str, core: Any) -> None:
        for tag in sorted(core.cycles_by_tag):
            cycles = core.cycles_by_tag[tag]
            if cycles:
                rows.append((group, label, tag, cycles))

    for vm in testbed.vms:
        emit("vm", f"{vm.name}.vcpu", vm.vcpu)
    for index, core in enumerate(testbed.service_cores):
        emit("sidecores", str(index), core)
    for index, client in enumerate(testbed.clients):
        emit("clients", f"{index}.core", client.core)
    return rows


def to_folded_stacks(testbed: Any) -> str:
    """Cycles-per-component flamegraph in collapsed-stack format.

    One line per ``(component group; core; cost tag)`` stack, weighted by
    simulated cycles — feed straight into ``flamegraph.pl`` or
    speedscope's folded-stack importer.
    """
    lines = [f"{group};{core};{tag} {cycles}"
             for group, core, tag, cycles in cycles_by_component(testbed)]
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(source: Any, name: str = "repro") -> Dict[str, Any]:
    """Speedscope sampled-profile JSON.

    ``source`` is either a :class:`LatencyAttribution` (stacks are
    ``kind → stage`` weighted by total simulated nanoseconds) or a
    testbed (stacks are ``group → core → tag`` weighted by simulated
    cycles).
    """
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame(label: str) -> int:
        idx = frame_index.get(label)
        if idx is None:
            idx = frame_index[label] = len(frames)
            frames.append({"name": label})
        return idx

    samples: List[List[int]] = []
    weights: List[float] = []
    if isinstance(source, LatencyAttribution):
        unit = "nanoseconds"
        for stage, histogram in source.stages.items():
            total = float(sum(histogram.samples))
            if total:
                samples.append([frame(stage_kind(stage)), frame(stage)])
                weights.append(total)
    else:
        unit = "none"
        for group, core, tag, cycles in cycles_by_component(source):
            samples.append([frame(group), frame(core), frame(tag)])
            weights.append(float(cycles))
    total_weight = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": unit,
            "startValue": 0,
            "endValue": total_weight,
            "samples": samples,
            "weights": weights,
        }],
        "activeProfileIndex": 0,
        "exporter": "repro-observe",
    }
