"""Per-request stage-latency breakdown, derived from a Tracer.

Every traced request leaves a trail of *markers* on the clock: point
events contribute one marker each, spans contribute a start marker (the
span's name) and an end marker (``<name>_end``).  Consecutive markers of
one trace delimit a **stage**:

* the interval from a span's start marker straight to its own end marker
  is named after the span (``iohost_service``);
* any other interval is named ``a→b`` after its two bounding markers
  (``guest_tx→iohost_service`` is the channel hop, for example).

Because stages tile the marker range of each trace exactly, the per-trace
stage durations sum to the trace's ``end_to_end`` (last minus first
marker) with no rounding — a property the tests assert.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..sim import Histogram

__all__ = ["StageBreakdown", "stage_breakdown", "trace_markers"]

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


def _stage_name(prev: str, nxt: str) -> str:
    if nxt == f"{prev}_end":
        return prev
    return f"{prev}→{nxt}"


class StageBreakdown:
    """Aggregated stage durations across many traces."""

    def __init__(self) -> None:
        # Insertion-ordered: stages appear in first-seen datapath order.
        self.stages: Dict[str, Histogram] = {}
        self.end_to_end = Histogram(END_TO_END)
        self.traces = 0

    def _add(self, stage: str, duration_ns: int) -> None:
        histogram = self.stages.get(stage)
        if histogram is None:
            histogram = self.stages[stage] = Histogram(stage)
        histogram.add(duration_ns)

    def add_trace(self, markers: List[Tuple[int, str]]) -> None:
        """Fold one trace's markers in (ignored if fewer than two)."""
        if len(markers) < 2:
            return
        self.traces += 1
        for (t0, a), (t1, b) in zip(markers, markers[1:]):
            self._add(_stage_name(a, b), t1 - t0)
        self.end_to_end.add(markers[-1][0] - markers[0][0])

    def summarize(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Stage name -> count/mean/p50/p95/p99/max digest (ns)."""
        out = {name: h.summary() for name, h in self.stages.items()}
        out[END_TO_END] = self.end_to_end.summary()
        return out

    def format(self) -> str:
        """Render the breakdown as an aligned text table (values in us)."""
        if not self.traces:
            return "stage breakdown: no traced requests"
        lines = [f"stage latency breakdown ({self.traces} traced requests, us)",
                 f"{'stage':38s} {'count':>7s} {'mean':>9s} {'p50':>9s} "
                 f"{'p95':>9s} {'p99':>9s} {'max':>9s}"]
        rows = list(self.stages.items()) + [(END_TO_END, self.end_to_end)]
        for name, histogram in rows:
            d = histogram.summary()
            if d["count"] == 0:
                lines.append(f"{name:38s} {0:7d}")
                continue
            cells = " ".join(f"{d[s] / 1000.0:9.2f}"
                             for s in ("mean", "p50", "p95", "p99", "max"))
            lines.append(f"{name:38s} {d['count']:7d} {cells}")
        return "\n".join(lines)


def stage_breakdown(tracer: Any, trace_ids: Optional[List[Any]] = None
                    ) -> StageBreakdown:
    """Build the breakdown over ``trace_ids`` (default: every trace)."""
    breakdown = StageBreakdown()
    markers = trace_markers(tracer)
    for trace_id in markers if trace_ids is None else trace_ids:
        breakdown.add_trace(markers.get(trace_id, []))
    return breakdown
