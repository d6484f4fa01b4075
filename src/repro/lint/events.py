"""SIM3xx — event-safety rules.

The event engine runs callbacks at a later simulation time than they
were created, which makes two Python footguns fatal rather than merely
ugly:

* SIM301 — a mutable default argument on a callback persists across
  events, so one event's state leaks into the next.
* SIM302 — a deferred closure reads a local of its enclosing function
  that is rebound after the closure is made.  A closure created in a
  loop and scheduled (or stored) for later reads its loop variable
  *late-bound*: by the time the engine fires it, every closure sees the
  final iteration's value.  A lambda, or a def of the same scope passed
  by name, handed to an event-system call (``EVENT_SINK_METHODS``) sees
  a local assigned again after that call.  The fix is the
  default-argument binding idiom (``lambda v=vm: ...``), which this
  rule recognizes and accepts.
* SIM303 — code outside ``repro/sim/`` reaching into the scheduler's
  internals (``_heap``, ``_seq``, ``_ready``).  The engine's run loops
  deliberately couple to those fields *inside* the kernel; anything
  else poking them bypasses the FIFO tie-break and the integer-delay
  check and silently corrupts the schedule.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterable, Iterator, List, Sequence, Set, Tuple,
                    Union)

from .framework import FileContext, Rule, child_nodes, register_rule, walk
from .symbols import EVENT_SINK_METHODS

__all__ = []

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_FUNCS = (*_DEFS, ast.Lambda)
_SCOPES = (*_FUNCS, ast.ClassDef)


def _mutable_defaults(args: ast.arguments) -> List[ast.AST]:
    out = []
    for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
        if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                ast.ListComp, ast.DictComp, ast.SetComp)):
            out.append(default)
        elif isinstance(default, ast.Call) and \
                isinstance(default.func, ast.Name) and \
                default.func.id in ("list", "dict", "set", "bytearray"):
            out.append(default)
    return out


@register_rule
class MutableDefaultRule(Rule):
    code = "SIM301"
    name = "mutable-default-arg"
    rationale = ("Default values are evaluated once at def time; a mutable "
                 "default on an event callback carries state from one event "
                 "into the next.")

    def _check(self, node: _FuncNode, ctx: FileContext) -> None:
        for default in _mutable_defaults(node.args):
            label = getattr(node, "name", "<lambda>")
            self.report(ctx, default,
                        f"mutable default argument on {label!r}; default to "
                        f"None and create the object inside the body")

    def visit_FunctionDef(self, node, ctx: FileContext) -> None:
        self._check(node, ctx)

    def visit_AsyncFunctionDef(self, node, ctx: FileContext) -> None:
        self._check(node, ctx)

    def visit_Lambda(self, node, ctx: FileContext) -> None:
        self._check(node, ctx)


def _param_names(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.args + args.posonlyargs + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _free_loads(fn: _FuncNode) -> Set[str]:
    """Names the function loads but does not bind itself."""
    bound = _param_names(fn.args)
    loads: Set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for node in walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                else:  # Store / Del binds locally
                    bound.add(node.id)
            elif isinstance(node, ast.comprehension):
                for target in walk(node.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                bound |= _param_names(node.args)
    return loads - bound


def _loop_target_names(target: ast.AST) -> Set[str]:
    return {n.id for n in walk(target) if isinstance(n, ast.Name)}


def _bindings(scope: ast.AST) -> Dict[str, List[ast.AST]]:
    """The nodes binding each name of ``scope``'s own namespace: the
    scope itself for a parameter, then its assignment targets and defs
    (not those of nested scopes or comprehension targets)."""
    bound: Dict[str, List[ast.AST]] = {}
    if not isinstance(scope, ast.Module):
        for name in _param_names(scope.args):  # type: ignore[attr-defined]
            bound[name] = [scope]
    body = scope.body  # type: ignore[attr-defined]
    nodes = list(body) if isinstance(body, list) else [body]
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.setdefault(node.id, []).append(node)
        elif isinstance(node, _SCOPES):
            if not isinstance(node, ast.Lambda):
                bound.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.comprehension):
            nodes += [node.iter, *node.ifs]
        else:
            nodes += child_nodes(node)
    return bound


def _deferred(roots: Iterable[ast.AST],
              kinds: Tuple[type, ...]) -> Iterator[ast.AST]:
    """Nodes of ``kinds`` under ``roots`` that are not called in place.

    ``(lambda: vm)()`` runs immediately, so it cannot see a later
    iteration.  A walk reaches every Call before its ``func``, so the
    callees run in place are known by the time their node comes up.
    """
    called: Set[int] = set()
    for root in roots:
        for sub in walk(root):
            if isinstance(sub, ast.Call):
                called.add(id(sub.func))
            elif isinstance(sub, kinds) and id(sub) not in called:
                yield sub


def _loop_captures(roots: Sequence[ast.AST], targets: Set[str],
                   kinds: Tuple[type, ...]
                   ) -> Iterator[Tuple[ast.AST, List[str]]]:
    """Each deferred closure under ``roots`` with the loop ``targets`` it
    reads.  A name bound by a function between the loop and the closure
    is that function's: in ``def first(log=log): ... lambda: log ...``
    the lambda reads ``first``'s parameter, not the loop's ``log``."""
    for sub in _deferred(roots, kinds):
        captured = _free_loads(sub) & targets
        if not captured:
            continue
        for root in roots:
            for fn in walk(root):
                if isinstance(fn, _FUNCS) and fn is not sub \
                        and sub in walk(fn):
                    captured -= _bindings(fn).keys()
        if captured:
            yield sub, sorted(captured)


@register_rule
class LateBoundCaptureRule(Rule):
    code = "SIM302"
    name = "late-bound-capture"
    rationale = ("A deferred closure reads its enclosing function's locals "
                 "when the event engine fires it, not when it was made: a "
                 "closure scheduled from a loop reads the last iteration, "
                 "and one handed to the event system reads any value "
                 "assigned after the subscription point.  Bind with a "
                 "default argument (lambda v=vm: ...).")

    def __init__(self) -> None:
        super().__init__()
        self._sink_calls: List[Tuple[ast.Call, str]] = []

    # -- loop capture --------------------------------------------------------

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        targets = _loop_target_names(node.target)
        if not targets:
            return
        for sub, captured in _loop_captures(node.body, targets, _FUNCS):
            label = getattr(sub, "name", "<lambda>")
            self.report(ctx, sub,
                        f"{label!r} captures loop variable(s) "
                        f"{', '.join(captured)} late-bound; bind "
                        f"them as default arguments "
                        f"({captured[0]}={captured[0]})")

    def visit_ListComp(self, node: ast.ListComp, ctx: FileContext) -> None:
        self._comp(node, ctx)

    def visit_SetComp(self, node: ast.SetComp, ctx: FileContext) -> None:
        self._comp(node, ctx)

    def _comp(self, node, ctx: FileContext) -> None:
        targets: Set[str] = set()
        for gen in node.generators:
            targets |= _loop_target_names(gen.target)
        for sub, captured in _loop_captures([node.elt], targets,
                                            (ast.Lambda,)):
            self.report(ctx, sub,
                        f"comprehension builds lambdas capturing "
                        f"{', '.join(captured)} late-bound; bind "
                        f"them as default arguments")

    # -- straight-line reassignment -----------------------------------------

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        sink = func.attr if isinstance(func, ast.Attribute) else \
            func.id if isinstance(func, ast.Name) else None
        if sink in EVENT_SINK_METHODS:
            self._sink_calls.append((node, sink))

    def end_file(self, ctx: FileContext) -> None:
        """Check each event-system call handed a lambda, or a def of its
        own scope by name, against the scope's later assignments."""
        calls, self._sink_calls = self._sink_calls, []
        defs = [fn for fn in ctx.scopes if isinstance(fn, _DEFS)]
        names = {fn.name for fn in defs}
        for call, sink in calls:
            closures = [arg for arg in call.args + [kw.value for kw in
                                                    call.keywords]
                        if isinstance(arg, ast.Lambda) or
                        isinstance(arg, ast.Name) and arg.id in names]
            if not closures:
                continue
            # The innermost def spanning the call's line, else the module.
            bound = _bindings(max(
                (fn for fn in defs
                 if fn.lineno <= call.lineno <= (fn.end_lineno or 0)),
                key=lambda fn: fn.lineno, default=ctx.tree))
            for arg in closures:
                # A name stands for the scope's last def of it before the call.
                closure = arg if isinstance(arg, ast.Lambda) else next(
                    (node for node in reversed(bound.get(arg.id, ()))
                     if isinstance(node, _DEFS)
                     and node.lineno < call.lineno), None)
                if closure is None:
                    continue
                for name in sorted(_free_loads(closure)):
                    lines = [node.lineno for node in bound.get(name, ())]
                    later = [line for line in lines if line > call.lineno]
                    if later and min(lines) <= call.lineno:
                        self.report(ctx, call,
                                    f"callback passed to {sink}() captures "
                                    f"local '{name}', which is reassigned at "
                                    f"line {min(later)} after the "
                                    f"subscription point")


# Scheduler internals owned by repro/sim: the timer heap, the FIFO
# tie-break counter, and the zero-delay ready lane.
_SCHEDULER_INTERNALS = frozenset({"_heap", "_seq", "_ready"})


@register_rule
class SchedulerInternalsRule(Rule):
    code = "SIM303"
    name = "scheduler-internals-poke"
    rationale = ("The scheduler's queue state (_heap/_seq/_ready) is "
                 "owned by repro/sim; outside pokes bypass the (time, seq) "
                 "FIFO tie-break and the integer-delay check and silently "
                 "corrupt the schedule.  Go through the public "
                 "Environment API (call_soon, timeout, run, peek).")

    def visit_Attribute(self, node: ast.Attribute, ctx: FileContext) -> None:
        if node.attr not in _SCHEDULER_INTERNALS:
            return
        if ctx.path.startswith("repro/sim/"):
            return  # the kernel's own (documented) coupling
        # An object's own private state is fine (e.g. a recorder keeping
        # its own self._seq); what's flagged is reaching into *another*
        # object's scheduler fields.
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return
        self.report(ctx, node,
                    f"access to scheduler-internal field {node.attr!r} "
                    f"outside repro/sim; use the public Environment API")
