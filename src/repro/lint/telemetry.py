"""SIM4xx — telemetry-hygiene rules.

The telemetry layer (PR 2) promises that instrumented runs stay
bit-identical and that every metric lands in one canonical snapshot.
That holds only while names are well-formed, unique, and spans are
closed:

* SIM401 — metric/tracer name literals must be lowercase dotted
  identifiers (MetricsRegistry rejects malformed names at runtime; the
  lint catches them before any simulation runs, and also covers tracer
  point/span names the registry never sees).
* SIM402 — registering the same literal name twice on the same
  namespace raises at runtime; statically visible duplicates are flagged
  at lint time.
* SIM403 — a ``tracer.begin(...)`` with no ``.end(...)`` anywhere in the
  same function leaks an open span: Chrome-trace exports render it as a
  dangling "B" event and duration queries silently drop it.
* SIM404 — a ``Timeline`` constructed but never flushed drops its final
  partial window; an ``SloProbe`` constructed but never ``.attach()``-ed
  never evaluates a single window.  Handing the object off (returning
  it, storing it on an attribute, or binding via ``bind_timeline()`` —
  whose receiver flushes in ``finish()``) transfers that duty.
* SIM405 — window widths are configuration, not code: a numeric literal
  passed as ``width_ns=`` / ``window_ns=`` (or positionally to
  ``Timeline``) must instead come from ``DEFAULT_WINDOW_NS``, an
  ``SloSpec`` (the sanctioned carrier, exempt), or a named constant.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Tuple

from .framework import FileContext, Rule, register_rule

__all__ = []

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

_REGISTER_METHODS = {
    "register_counter", "register_gauge", "register_histogram",
    "register_utilization", "register_time_weighted", "namespace",
}
_TRACER_NAME_METHODS = {"point", "begin"}


def _receiver_source(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


def _is_tracer_receiver(node: ast.AST) -> bool:
    """True for ``tracer``, ``self.tracer``, ``foo.tracer`` receivers."""
    if isinstance(node, ast.Name):
        return node.id.endswith("tracer")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("tracer")
    return False


@register_rule
class MetricNameRule(Rule):
    code = "SIM401"
    name = "malformed-metric-name"
    rationale = ("Metric and tracer names key the canonical snapshot and "
                 "trace exports; MetricsRegistry rejects malformed names "
                 "at runtime — catch them before a simulation pays for it.")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        name_arg = None
        if method in _REGISTER_METHODS and node.args:
            name_arg = node.args[0]
        elif method in _TRACER_NAME_METHODS and len(node.args) >= 2 \
                and _is_tracer_receiver(node.func.value):
            name_arg = node.args[1]
        if name_arg is None or not isinstance(name_arg, ast.Constant) \
                or not isinstance(name_arg.value, str):
            return  # dynamic names are checked at runtime by _check_name
        if not _NAME_RE.match(name_arg.value):
            self.report(ctx, name_arg,
                        f"metric/tracer name {name_arg.value!r} is not a "
                        f"lowercase dotted identifier "
                        f"([a-z0-9_]+(.[a-z0-9_]+)*)")


class _FunctionScopeRule(Rule):
    """A rule judged once per plain ``def``, over its own-scope nodes
    (BFS order, nested defs as single nodes) as the framework's walk
    filed them in ``ctx.scopes``."""

    def end_file(self, ctx: FileContext) -> None:
        for node, own in ctx.scopes.items():
            if isinstance(node, ast.FunctionDef):
                self.check(node, own, ctx)

    def check(self, node: ast.FunctionDef, own: List[ast.AST],
              ctx: FileContext) -> None:
        raise NotImplementedError


@register_rule
class NamespaceCollisionRule(_FunctionScopeRule):
    code = "SIM402"
    name = "metric-name-collision"
    rationale = ("Registering a name twice raises ValueError mid-run; "
                 "duplicates visible in one function body are caught at "
                 "lint time instead.")

    def check(self, node: ast.FunctionDef, own: List[ast.AST],
              ctx: FileContext) -> None:
        seen: Dict[Tuple[str, str], ast.AST] = {}
        for sub in own:
            if not isinstance(sub, ast.Call) \
                    or not isinstance(sub.func, ast.Attribute) \
                    or sub.func.attr not in _REGISTER_METHODS \
                    or sub.func.attr == "namespace" \
                    or not sub.args:
                continue
            name_arg = sub.args[0]
            if not isinstance(name_arg, ast.Constant) \
                    or not isinstance(name_arg.value, str):
                continue
            key = (_receiver_source(sub.func.value), name_arg.value)
            if key in seen:
                self.report(ctx, sub,
                            f"metric {name_arg.value!r} registered twice on "
                            f"{key[0]} in {node.name!r}; the second "
                            f"registration raises at runtime")
            else:
                seen[key] = sub


@register_rule
class OpenSpanRule(_FunctionScopeRule):
    code = "SIM403"
    name = "span-never-closed"
    rationale = ("An un-ended span exports as a dangling begin event and "
                 "is invisible to span_durations(); every begin needs an "
                 "end on every path through the function.")

    def check(self, node: ast.FunctionDef, own: List[ast.AST],
              ctx: FileContext) -> None:
        begins: List[Tuple[ast.Call, str]] = []
        enders = set()
        for sub in own:
            if not isinstance(sub, ast.Call) \
                    or not isinstance(sub.func, ast.Attribute):
                continue
            if not _is_tracer_receiver(sub.func.value):
                continue
            receiver = _receiver_source(sub.func.value)
            if sub.func.attr == "begin":
                begins.append((sub, receiver))
            elif sub.func.attr == "end":
                enders.add(receiver)
        for call, receiver in begins:
            if receiver not in enders:
                self.report(ctx, call,
                            f"span opened on {receiver} in {node.name!r} "
                            f"but no .end() call in the same function; the "
                            f"span leaks open")


def _callee_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


@register_rule
class UnflushedTimelineRule(_FunctionScopeRule):
    code = "SIM404"
    name = "telemetry-never-consumed"
    rationale = ("A timeline that is never flushed silently drops its "
                 "final partial window, and an SLO probe that is never "
                 "attached evaluates nothing; both read as coverage that "
                 "does not exist.")

    def check(self, node: ast.FunctionDef, own: List[ast.AST],
              ctx: FileContext) -> None:
        # Names a timeline/probe creation is assigned to, keyed by kind.
        timelines: Dict[str, ast.Call] = {}
        probes: Dict[str, ast.Call] = {}
        flushed = set()
        attached = set()
        escaped = set()
        for sub in own:
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                callee = _callee_name(sub.value)
                target = sub.targets[0] if len(sub.targets) == 1 else None
                if not isinstance(target, ast.Name):
                    continue  # attribute/tuple target: ownership escapes
                # Only direct constructions: bind_timeline() stores the
                # timeline on its receiver, whose finish() flushes it.
                if callee == "Timeline" and isinstance(sub.value.func,
                                                      ast.Name):
                    timelines[target.id] = sub.value
                elif callee == "SloProbe":
                    probes[target.id] = sub.value
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and isinstance(sub.func.value, ast.Name):
                if sub.func.attr in ("flush", "finish"):
                    flushed.add(sub.func.value.id)
                elif sub.func.attr == "attach":
                    attached.add(sub.func.value.id)
            elif isinstance(sub, ast.Return) \
                    and isinstance(sub.value, ast.Name):
                escaped.add(sub.value.id)
        for name, call in timelines.items():
            if name not in flushed and name not in escaped:
                self.report(ctx, call,
                            f"timeline {name!r} bound in {node.name!r} but "
                            f"never flushed (no .flush()/.finish() and not "
                            f"handed off); its final partial window is lost")
        for name, call in probes.items():
            # A chained SloProbe(...).attach(...) never lands in `probes`
            # because the Assign value is the .attach call, not SloProbe.
            if name not in attached and name not in escaped:
                self.report(ctx, call,
                            f"SLO probe {name!r} created in {node.name!r} "
                            f"but never .attach()-ed to a timeline; it will "
                            f"evaluate no windows")


# Keyword names that carry a window width; SloSpec is the sanctioned
# declarative carrier, so literals inside an SloSpec(...) call are fine.
_WIDTH_KWARGS = {"width_ns", "window_ns", "timeline_width_ns"}


@register_rule
class HardCodedWindowRule(Rule):
    code = "SIM405"
    name = "hard-coded-window-width"
    rationale = ("Window widths are configuration: inline numeric widths "
                 "drift apart across call sites and defeat SloSpec-driven "
                 "sizing; route them through DEFAULT_WINDOW_NS, an "
                 "SloSpec, or a named constant.")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        callee = _callee_name(node)
        if callee == "SloSpec":
            return
        for kw in node.keywords:
            if kw.arg in _WIDTH_KWARGS \
                    and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, (int, float)) \
                    and not isinstance(kw.value.value, bool):
                self.report(ctx, kw.value,
                            f"hard-coded window width {kw.value.value!r} "
                            f"passed as {kw.arg}= to {callee or '<call>'}; "
                            f"use DEFAULT_WINDOW_NS, an SloSpec, or a "
                            f"named constant")
        if callee in ("Timeline", "bind_timeline") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, (int, float)) \
                    and not isinstance(first.value, bool):
                self.report(ctx, first,
                            f"hard-coded window width {first.value!r} "
                            f"passed to {callee}; use DEFAULT_WINDOW_NS, "
                            f"an SloSpec, or a named constant")
