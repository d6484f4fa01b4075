"""Whole-program analysis: module graph → symbols → call graph → rules.

This is the ``repro lint --project`` layer.  It extracts one pickleable
:class:`~repro.lint.symbols.ModuleSummary` per file (with an incremental
content-addressed cache), builds the
:class:`~repro.lint.callgraph.CallGraph`, and runs the SIM6xx
interprocedural rule family that per-file rules cannot express.  The
SIM6xx rules live in the one rule registry
(:func:`~repro.lint.framework.register_rule`) next to the per-file ones.

Caching
-------
Each file's entry in the one lint cache
(:class:`~repro.lint.framework.LintCache`) holds its per-file findings
and, under ``repro/``, its :class:`ModuleSummary`, pickled apart and
built from one parse, so ``lint --project`` after ``lint`` parses
nothing.  The project entry keeps the raw SIM6xx findings under a hash
of every summarized file's path and entry digest: an unchanged tree runs
no rule.  ``--only`` filters complete findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .callgraph import (CallGraph, ProjectIndex, build_callgraph,
                        build_index, resolve_callee)
from .dataflow import run_taint_analysis
from .findings import Finding
from .framework import (LintCache, LintResult, ProjectLinter,
                        default_lint_root, fold_findings, read_sources,
                        register_rule, select_rules)
from .symbols import ModuleSummary, extract_module

__all__ = [
    "ProjectAnalysis",
    "ProjectRule",
    "build_project",
    "build_project_from_sources",
    "run_project_rules",
]


# ---------------------------------------------------------------------------
# Project container


@dataclass
class ProjectAnalysis:
    """Everything the SIM6xx rules consume."""

    index: ProjectIndex
    cache_hits: int = 0
    cache_misses: int = 0
    # Where run_project_rules finds and keeps the raw SIM6xx findings.
    cache: LintCache = field(default_factory=lambda: LintCache(None, False))

    @property
    def summaries(self) -> Dict[str, ModuleSummary]:
        return self.index.summaries

    @cached_property
    def graph(self) -> CallGraph:
        """Built on first use: a stored project result needs none."""
        return build_callgraph(self.index)


def build_project(root: Optional[Path] = None,
                  use_cache: bool = True,
                  cache_dir: Optional[Path] = None,
                  linter: Optional[ProjectLinter] = None) -> ProjectAnalysis:
    """Summarize the whole tree (through the lint cache) and index it.

    One pass, each file read once and parsed only on a cache miss, where
    the one parse feeds ``linter`` (default: a fresh one) and the summary.
    """
    root = root or default_lint_root()
    cache = LintCache(cache_dir, use_cache)
    linter = linter or ProjectLinter()
    summaries: Dict[str, ModuleSummary] = {
        rel: linter.add_cached(rel, source, cache, summary=True)
        for rel, source in read_sources([root / "repro"], root)}
    cache.save()

    index = build_index(dict(sorted(summaries.items())))
    return ProjectAnalysis(
        index=index, cache_hits=len(summaries) - cache.misses,
        cache_misses=cache.misses, cache=cache)


def build_project_from_sources(files: Mapping[str, str]) -> ProjectAnalysis:
    """In-memory variant — the fixture/test entry point."""
    summaries = {path: extract_module(path, files[path])
                 for path in sorted(files)}
    return ProjectAnalysis(index=build_index(summaries),
                           cache_misses=len(summaries))


# ---------------------------------------------------------------------------
# Project rules: registered in the one registry, but they consume a
# ProjectAnalysis rather than an AST walk


class ProjectRule:
    """Base class for whole-program (SIM6xx) rules."""

    code: str = ""
    name: str = ""
    rationale: str = ""

    def run(self, project: ProjectAnalysis) -> List[Finding]:
        raise NotImplementedError


def run_project_rules(project: ProjectAnalysis,
                      only: Optional[Iterable[str]] = None) -> LintResult:
    """Fold suppressions into every SIM6xx rule's raw findings (stored for
    this tree, or run and stored) among ``only``."""
    wanted = None if only is None else {
        cls.code for cls in select_rules(only, ProjectRule)}
    summaries = project.summaries
    paths = sorted(summaries)
    findings = project.cache.get_project(paths)
    if findings is None:
        findings = [finding for cls in select_rules(None, ProjectRule)
                    for finding in cls().run(project)]
        project.cache.put_project(paths, findings)
        project.cache.save()
    parse_errors = [
        Finding(path=s.path, line=s.parse_error[0], col=s.parse_error[1],
                code="SIM000",
                message=f"file does not parse: {s.parse_error[2]}")
        for s in (summaries[path] for path in sorted(summaries))
        if s.parse_error is not None]
    return fold_findings(
        findings, {path: s.suppressions for path, s in summaries.items()},
        len(summaries), parse_errors, wanted)


# ---------------------------------------------------------------------------
# SIM601 — RNG provenance


@register_rule
class RngProvenanceRule(ProjectRule):
    code = "SIM601"
    name = "rng-provenance"
    rationale = ("every random stream that reaches the scheduler, an event "
                 "callback, or serialized output must come from "
                 "RngRegistry.stream() — a raw random.Random laundered "
                 "through helpers still breaks bit-identical replay")

    def run(self, project: ProjectAnalysis) -> List[Finding]:
        state = run_taint_analysis(project.index)
        return [Finding(path=t.path, line=t.line, col=t.col, code=self.code,
                        message=t.detail)
                for t in state.findings]


# ---------------------------------------------------------------------------
# SIM602 — cycle-ledger flow

# Where datapath execution enters the model layer: public functions and
# methods in these packages are treated as entry points.  iomodels/* is
# the paper's datapath proper; the surrounding packages (workload
# drivers, cluster wiring, guest/hw plumbing, fault injectors) are the
# code that invokes it, so their public surface counts as entry too —
# otherwise every field consumed by the load generator would read as
# dead.
DATAPATH_PREFIXES: Tuple[str, ...] = (
    "repro/iomodels/", "repro/workloads/", "repro/cluster/",
    "repro/guest/", "repro/hw/", "repro/net/", "repro/virtio/",
    "repro/faults/", "repro/interpose/")

_COSTS_PATH = "repro/iomodels/costs.py"
_COSTS_CLASS = "CostModel"


def _datapath_roots(project: ProjectAnalysis) -> List[str]:
    roots: List[str] = []
    for fnkey in project.index.functions:
        path, qualname = fnkey.split("::", 1)
        if not path.startswith(DATAPATH_PREFIXES):
            continue
        last = qualname.rsplit(".", 1)[-1]
        if last == "<module>" or not last.startswith("_") \
                or last in ("__init__", "__call__"):
            roots.append(fnkey)
    return roots


@register_rule
class LedgerFlowRule(ProjectRule):
    code = "SIM602"
    name = "ledger-flow"
    rationale = ("every CostModel field must reach a Core.execute/Core.stall "
                 "charge (or a simulated-time delay) along some call path "
                 "from a datapath entry point, and every iomodels charge "
                 "site must be reachable from one — otherwise the ledger "
                 "and the calibrated catalog have silently diverged")

    def run(self, project: ProjectAnalysis) -> List[Finding]:
        index = project.index
        costs = index.summaries.get(_COSTS_PATH)
        if costs is None or _COSTS_CLASS not in costs.classes:
            return []
        fields = costs.classes[_COSTS_CLASS].class_fields
        roots = _datapath_roots(project)
        reachable = project.graph.reachable(roots)

        sinkers = {fnkey for fnkey, fn in index.functions.items()
                   if fn.charge_lines or fn.time_sink_lines}

        # Class-cohesive flow: a field read anywhere in a class whose
        # methods reach a charge counts (e.g. stored by __init__, spent
        # by a later method).
        def _owner(fnkey: str) -> str:
            path, qualname = fnkey.split("::", 1)
            return f"{path}::{qualname.split('.', 1)[0]}" \
                if "." in qualname else fnkey

        cohort: Dict[str, List[str]] = {}
        for fnkey in index.functions:
            cohort.setdefault(_owner(fnkey), []).append(fnkey)

        # CHARGERS: every function whose forward closure contains a
        # charge/time sink (one reverse BFS from the sinkers).
        reverse: Dict[str, List[str]] = {}
        for src, dsts in project.graph.edges.items():
            for dst in dsts:
                reverse.setdefault(dst, []).append(src)
        chargers: Set[str] = set()
        stack = list(sinkers)
        while stack:
            fnkey = stack.pop()
            if fnkey in chargers:
                continue
            chargers.add(fnkey)
            stack.extend(reverse.get(fnkey, ()))

        def charges_flow_from(fnkey: str) -> bool:
            # The reader itself (or a class-mate) reaches a charge, or
            # the value it computes returns to a caller that does —
            # the ``cycles = helper(costs); core.execute(cycles)`` shape.
            group = cohort.get(_owner(fnkey), [fnkey])
            if any(member in chargers for member in group):
                return True
            return any(caller in chargers
                       for caller in reverse.get(fnkey, ()))

        live: Set[str] = set()
        for fnkey in reachable:
            fn = index.functions[fnkey]
            touched = fn.attr_reads.intersection(fields)
            if touched and charges_flow_from(fnkey):
                live |= touched

        findings: List[Finding] = []
        field_lines = costs.classes[_COSTS_CLASS].field_lines
        for name in fields:
            if name not in live:
                findings.append(Finding(
                    path=_COSTS_PATH, line=field_lines.get(name, 1), col=0,
                    code=self.code,
                    message=(f"CostModel.{name} never reaches a "
                             f"Core.execute/Core.stall charge or a "
                             f"simulated-time delay along any call path "
                             f"from a datapath entry point")))

        for fnkey, fn in index.functions.items():
            path, qualname = fnkey.split("::", 1)
            if not path.startswith(DATAPATH_PREFIXES) or not fn.charge_lines:
                continue
            if fnkey not in reachable:
                findings.append(Finding(
                    path=path, line=fn.charge_lines[0], col=0,
                    code=self.code,
                    message=(f"charge site in {qualname}() is unreachable "
                             f"from every datapath entry point — cycles "
                             f"charged here can never appear in a run")))
        return findings


# ---------------------------------------------------------------------------
# SIM604 — telemetry reachability


@register_rule
class TelemetryReachabilityRule(ProjectRule):
    code = "SIM604"
    name = "telemetry-reachability"
    rationale = ("a register_telemetry() hook only runs if its class is "
                 "instantiated by some registered ModelInfo builder — a "
                 "hook on an orphan class silently exports nothing")

    def run(self, project: ProjectAnalysis) -> List[Finding]:
        index = project.index
        roots: List[str] = []
        for path, summary in index.summaries.items():
            caller = f"{path}::<module>"
            for name, _line in summary.registered_builders:
                roots.extend(
                    resolve_callee(index, caller, name).targets)
        if not roots:
            return []
        reachable = project.graph.reachable(roots)
        instantiated = project.graph.instantiated_from(reachable)

        findings: List[Finding] = []
        for clskey, cls in index.classes.items():
            if "register_telemetry" not in cls.methods:
                continue
            if clskey in instantiated:
                continue
            path = clskey.split("::", 1)[0]
            hook = index.functions.get(
                f"{path}::{cls.name}.register_telemetry")
            line = hook.lineno if hook is not None else cls.lineno
            findings.append(Finding(
                path=path, line=line, col=0, code=self.code,
                message=(f"{cls.name}.register_telemetry() is defined but "
                         f"{cls.name} is never instantiated from any "
                         f"registered ModelInfo builder — the hook can "
                         f"never run")))
        return findings
