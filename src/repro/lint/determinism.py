"""SIM1xx — determinism rules.

Everything downstream of the simulator (goldens, the sweep cache, fault
campaign reports) assumes bit-identical runs.  These rules catch the
constructs that historically break that promise:

* SIM101 — wall-clock reads inside the simulation tree;
* SIM102 — RNG streams not threaded from the seeded registry, and
  ``.stream(...)`` substream names derived from ``id()``/``hash()``;
* SIM103 — ``id()``/``hash()`` inside ordering keys (both vary per
  process: ``id`` is an address, ``hash`` of str is salted);
* SIM104 — unordered iteration (``dict.values()``/``dict.items()``/sets)
  flowing into order-sensitive sinks without ``sorted(...)``;
* SIM105 — process-environment reads outside the CLI/envvars modules.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from .framework import ENV_MODULES, FileContext, Rule, register_rule, walk

__all__ = []  # rules self-register; nothing to export

_WALLCLOCK_TIME_FNS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "clock",
}
_WALLCLOCK_DATETIME_FNS = {"now", "utcnow", "today"}


def _call_target(node: ast.Call) -> Optional[ast.Attribute]:
    return node.func if isinstance(node.func, ast.Attribute) else None


def _receiver_name(attr: ast.Attribute) -> Optional[str]:
    return attr.value.id if isinstance(attr.value, ast.Name) else None


@register_rule
class WallClockRule(Rule):
    code = "SIM101"
    name = "wall-clock-read"
    rationale = ("Simulation time is Environment.now; reading the host "
                 "clock makes runs irreproducible (golden fingerprints and "
                 "the sweep cache both key on bit-identical output).")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        attr = _call_target(node)
        if attr is None:
            return
        receiver = _receiver_name(attr)
        if receiver == "time" and attr.attr in _WALLCLOCK_TIME_FNS:
            self.report(ctx, node,
                        f"wall-clock read time.{attr.attr}() in a simulation "
                        f"module; use Environment.now (sim time) instead")
        elif attr.attr in _WALLCLOCK_DATETIME_FNS:
            # datetime.now() / datetime.datetime.now() / date.today()
            base = attr.value
            names = set()
            if isinstance(base, ast.Name):
                names.add(base.id)
            elif isinstance(base, ast.Attribute):
                names.add(base.attr)
            if names & {"datetime", "date"}:
                self.report(ctx, node,
                            f"wall-clock read {attr.attr}() on "
                            f"{sorted(names)[0]}; simulation output must not "
                            f"depend on the host clock")


@register_rule
class UnseededRandomRule(Rule):
    code = "SIM102"
    name = "unthreaded-rng"
    rationale = ("Every stochastic draw must come from the testbed's seeded "
                 "RngRegistry substreams; module-level random or ad-hoc "
                 "fixed seeds decouple components from the master seed.")

    # The one module allowed to construct random.Random: the registry.
    _RNG_HOME = ("repro/sim/rng.py",)

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        attr = _call_target(node)
        if attr is None:
            return
        if attr.attr == "stream":
            self._check_stream_name(node, ctx)
            return
        if _receiver_name(attr) != "random":
            return
        if attr.attr != "Random":
            # random.random(), random.choice(), random.seed(), ... —
            # draws from (or reseeds) the process-global stream.
            self.report(ctx, node,
                        f"call to module-level random.{attr.attr}(); draw "
                        f"from the testbed RngRegistry stream instead")
            return
        if ctx.is_module(*self._RNG_HOME):
            return
        if not node.args and not node.keywords:
            self.report(ctx, node,
                        "random.Random() with no seed is nondeterministic; "
                        "thread a RngRegistry stream instead")
        elif (node.args and isinstance(node.args[0], ast.Constant)):
            self.report(ctx, node,
                        "random.Random(<constant seed>) creates a stream "
                        "divorced from the master seed; thread a "
                        "RngRegistry stream instead")

    def _check_stream_name(self, node: ast.Call, ctx: FileContext) -> None:
        """Substream names seed their streams: a name derived from id()
        or hash() varies per process, so the draws (open-loop arrivals,
        object sizes, fault schedules) silently stop replaying."""
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in walk(arg):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id in ("id", "hash")):
                    self.report(ctx, sub,
                                f"{sub.func.id}() inside a .stream(...) "
                                f"substream name varies across processes; "
                                f"derive the name from a stable label or "
                                f"index instead")


_ORDERING_CALLS = {"sorted", "min", "max", "sort"}


@register_rule
class IdentityOrderingRule(Rule):
    code = "SIM103"
    name = "identity-in-ordering-key"
    rationale = ("id() is a memory address and str hashes are salted per "
                 "process; ordering by either reshuffles event order "
                 "between runs.")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name) and func.id in _ORDERING_CALLS:
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr in _ORDERING_CALLS:
            name = func.attr
        if name is None:
            return
        for sub in walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("id", "hash")):
                self.report(ctx, sub,
                            f"{sub.func.id}() inside a {name}() ordering "
                            f"expression varies across processes; order by "
                            f"a stable key (name, index) instead")


_SCHEDULE_FNS = {"schedule", "schedule_at", "call_soon", "process"}
_JSON_SINKS = {"dump", "dumps", "canonical_json", "canonicalize"}


def _contains_sorted(node: ast.AST) -> bool:
    for sub in walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "sorted"):
            return True
    return False


def _unordered_label(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it is an unordered iterable expression."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and not node.args \
                and node.func.attr in ("values", "items", "keys"):
            return f".{node.func.attr}()"
        if isinstance(node.func, ast.Name) and node.func.id in ("set",
                                                                "frozenset"):
            return f"{node.func.id}(...)"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal"
    return None


def _comp_unordered(comp: ast.AST) -> Optional[str]:
    """The unordered-iterable label of a comprehension's generators."""
    for gen in getattr(comp, "generators", []):
        label = _unordered_label(gen.iter)
        if label is not None:
            return label
    return None


@register_rule
class UnorderedFlowRule(Rule):
    code = "SIM104"
    name = "unordered-iteration-flow"
    rationale = ("Dict/set iteration order is an artifact of construction "
                 "history; feeding it into scheduling, JSON export, "
                 "materialized lists, or float aggregation makes output "
                 "depend on that history.  Iterate sorted(keys) instead.")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        fname = None
        if isinstance(func, ast.Name):
            fname = func.id
        elif isinstance(func, ast.Attribute):
            fname = func.attr
        if fname == "sum" and node.args:
            arg = node.args[0]
            label = _unordered_label(arg) or _comp_unordered(arg)
            if label is not None and not _contains_sorted(arg):
                self.report(ctx, node,
                            f"sum() over {label}: aggregate arithmetic in "
                            f"construction order; sum over sorted keys")
        elif fname in ("list", "tuple") and node.args:
            label = _unordered_label(node.args[0])
            if label == ".values()" and not _contains_sorted(node.args[0]):
                self.report(ctx, node,
                            f"{fname}() materializes dict values in "
                            f"construction order; index by sorted keys")
        elif fname in _JSON_SINKS and node.args:
            arg = node.args[0]
            label = _comp_unordered(arg)
            if label is not None and not _contains_sorted(arg):
                self.report(ctx, node,
                            f"{fname}() of a comprehension over {label}; "
                            f"canonicalize by sorting keys first")

    def visit_ListComp(self, node: ast.ListComp, ctx: FileContext) -> None:
        for gen in node.generators:
            label = _unordered_label(gen.iter)
            if label == ".values()" and not _contains_sorted(node):
                self.report(ctx, node,
                            "list comprehension over .values() materializes "
                            "dict construction order; iterate sorted keys")

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        label = _unordered_label(node.iter)
        if label is None or _contains_sorted(node.iter):
            return
        for sub in (n for stmt in node.body for n in walk(stmt)):
            if isinstance(sub, ast.AugAssign):
                self.report(ctx, node,
                            f"loop over {label} accumulates (augmented "
                            f"assignment) in construction order; iterate "
                            f"sorted keys")
                return
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute) and \
                    sub.func.attr in _SCHEDULE_FNS:
                self.report(ctx, node,
                            f"loop over {label} schedules simulation events "
                            f"in construction order; iterate sorted keys so "
                            f"the FIFO tiebreak is reproducible")
                return


@register_rule
class EnvironReadRule(Rule):
    code = "SIM105"
    name = "environ-outside-cli"
    rationale = ("Process-environment access inside the simulation tree "
                 "makes results depend on the shell; all environment knobs "
                 "go through repro.envvars (or the CLI itself).")

    def _flag(self, node: ast.AST, ctx: FileContext, what: str) -> None:
        self.report(ctx, node,
                    f"{what} outside the CLI/envvars modules; route "
                    f"environment access through repro.envvars")

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        if ctx.is_module(*ENV_MODULES):
            return
        if node.attr == "environ" and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            self._flag(node, ctx, "os.environ access")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if ctx.is_module(*ENV_MODULES):
            return
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "getenv" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "os":
            self._flag(node, ctx, "os.getenv() read")
