"""Symbol index and conservative call graph over module summaries.

Keys
----
* function key: ``"<path>::<qualname>"`` — e.g.
  ``repro/iomodels/hostpath.py::HostModel._guest_tx`` or
  ``repro/iomodels/hostpath.py::<module>`` for module-level code.
* class key: ``"<path>::<ClassName>"``.

Resolution is deliberately conservative (an over-approximation of the
real call graph): bare names resolve through the local scope chain
(nested defs → module functions → classes → imports), ``self.m`` to the
enclosing class's method, and any other attribute call by CHA — every
method of that name anywhere in the project.  ``cls(...)`` in a method
instantiates that class and every class deriving from it, since a
classmethod runs on whichever subclass it is called through.  Functions
passed by name (``functools.partial``, callbacks, builder kwargs)
contribute *reference* edges: a referenced function is considered
callable from the referencing one.  Over-approximation makes
"unreachable" findings (SIM602's orphan charge sites, SIM604's orphan
telemetry hooks) safe: anything we flag is unreachable under even the
most generous resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .symbols import ClassSummary, FunctionSummary, ModuleSummary

__all__ = ["ProjectIndex", "CallGraph", "build_index", "build_callgraph"]


@dataclass
class ProjectIndex:
    """Cross-module lookup tables derived from the summaries."""

    summaries: Dict[str, ModuleSummary]              # path -> summary
    by_module: Dict[str, str] = field(default_factory=dict)   # dotted -> path
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)


def build_index(summaries: Dict[str, ModuleSummary]) -> ProjectIndex:
    index = ProjectIndex(summaries=dict(summaries))
    for path, summary in summaries.items():
        index.by_module[summary.module] = path
        for qualname, fn in summary.functions.items():
            fnkey = f"{path}::{qualname}"
            index.functions[fnkey] = fn
            if "." in qualname:
                method = qualname.rsplit(".", 1)[-1]
                index.methods_by_name.setdefault(method, []).append(fnkey)
        for name, cls in summary.classes.items():
            index.classes[f"{path}::{name}"] = cls
    return index


def _split_symbol(index: ProjectIndex, dotted: str
                  ) -> Optional[Tuple[str, List[str]]]:
    """``repro.x.y.Class.meth`` → (path of repro/x/y.py, [Class, meth])."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        path = index.by_module.get(module)
        if path is not None:
            return path, parts[cut:]
    return None


@dataclass
class _Resolution:
    targets: List[str] = field(default_factory=list)        # function keys
    instantiates: List[str] = field(default_factory=list)   # class keys


def _resolve_in_module(index: ProjectIndex, path: str, symbol: List[str]
                       ) -> _Resolution:
    """Resolve ``[name]`` or ``[Class, method]`` inside one module."""
    out = _Resolution()
    summary = index.summaries.get(path)
    if summary is None or not symbol:
        return out
    head = symbol[0]
    if len(symbol) == 1:
        if head in summary.functions:
            out.targets.append(f"{path}::{head}")
        elif head in summary.classes:
            out.instantiates.append(f"{path}::{head}")
            if f"{head}.__init__" in summary.functions:
                out.targets.append(f"{path}::{head}.__init__")
        elif head in summary.imports:
            split = _split_symbol(index, summary.imports[head])
            if split is not None:
                return _resolve_in_module(index, split[0], split[1]) \
                    if split[1] else out
    elif len(symbol) == 2 and head in summary.classes:
        qualname = f"{head}.{symbol[1]}"
        if qualname in summary.functions:
            out.targets.append(f"{path}::{qualname}")
    return out


def resolve_callee(index: ProjectIndex, caller: str, chain: str
                   ) -> _Resolution:
    """All functions/classes a call chain may reach, from ``caller``."""
    path, qualname = caller.split("::", 1)
    summary = index.summaries[path]
    out = _Resolution()
    parts = chain.split(".")
    head = parts[0]

    if len(parts) == 1:
        # Nested def in the enclosing function chain.
        scope = qualname
        while scope:
            nested = f"{scope}.{head}"
            if nested in summary.functions:
                out.targets.append(f"{path}::{nested}")
                return out
            scope = scope.rsplit(".", 1)[0] if "." in scope else ""
        return _resolve_in_module(index, path, [head]) \
            if (head in summary.functions or head in summary.classes
                or head in summary.imports) else out

    if head == "self" and "." in qualname:
        cls_name = qualname.split(".", 1)[0]
        if len(parts) == 2:
            own = f"{cls_name}.{parts[1]}"
            if own in summary.functions:
                out.targets.append(f"{path}::{own}")
                return out
            # Method on a base class or duck-typed — fall through to CHA.
        # "self.attr.m(...)" or unresolved own method: CHA below.
    elif head in summary.imports or head in summary.classes:
        local = _resolve_in_module(
            index, path, parts) if head in summary.classes \
            else _Resolution()
        if local.targets or local.instantiates:
            return local
        split = _split_symbol(index, ".".join(
            [summary.imports.get(head, head)] + parts[1:]))
        if split is not None and split[1]:
            resolved = _resolve_in_module(index, split[0], split[1])
            if resolved.targets or resolved.instantiates:
                return resolved

    # Class-hierarchy-analysis fallback: every method of that name.
    method = parts[-1].replace("()", "")
    out.targets.extend(index.methods_by_name.get(method, ()))
    return out


@dataclass
class CallGraph:
    """Edges + instantiation facts, with reachability helpers."""

    index: ProjectIndex
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    instantiations: Dict[str, Set[str]] = field(default_factory=dict)

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.index.functions]
        while stack:
            fnkey = stack.pop()
            if fnkey in seen:
                continue
            seen.add(fnkey)
            stack.extend(self.edges.get(fnkey, ()))
        return seen

    def instantiated_from(self, functions: Iterable[str]) -> Set[str]:
        out: Set[str] = set()
        for fnkey in functions:
            out |= self.instantiations.get(fnkey, set())
        return out


def _reference_targets(index: ProjectIndex, caller: str, name: str
                       ) -> _Resolution:
    """A function/class passed or stored by name (address-taken)."""
    if not name:
        return _Resolution()
    return resolve_callee(index, caller, name)


def _class_families(index: ProjectIndex) -> Dict[str, Set[str]]:
    """Class key → that class and every class deriving from it."""
    children: Dict[str, Set[str]] = {}
    for clskey, cls in index.classes.items():
        module = f"{clskey.split('::', 1)[0]}::<module>"
        for base in cls.bases:
            for parent in resolve_callee(index, module, base).instantiates:
                children.setdefault(parent, set()).add(clskey)
    families: Dict[str, Set[str]] = {}
    for clskey in index.classes:
        family, stack = set(), [clskey]
        while stack:
            key = stack.pop()
            if key not in family:
                family.add(key)
                stack.extend(children.get(key, ()))
        families[clskey] = family
    return families


def build_callgraph(index: ProjectIndex) -> CallGraph:
    graph = CallGraph(index=index)
    families = _class_families(index)
    for fnkey, fn in index.functions.items():
        edges = graph.edges.setdefault(fnkey, set())
        inst = graph.instantiations.setdefault(fnkey, set())
        path, qualname = fnkey.split("::", 1)
        own_class = (f"{path}::{qualname.split('.', 1)[0]}"
                     if qualname.count(".") == 1 and fn.params[:1] == ("cls",)
                     else None)
        for call in fn.calls:
            if call.callee == "cls" and own_class in families:
                inst.update(families[own_class])
            resolution = resolve_callee(index, fnkey, call.callee)
            edges.update(resolution.targets)
            inst.update(resolution.instantiates)
            for ref in call.func_args:
                ref_res = _reference_targets(index, fnkey, ref)
                edges.update(ref_res.targets)
                inst.update(ref_res.instantiates)
        for ref in fn.stored_refs:
            ref_res = _reference_targets(index, fnkey, ref)
            edges.update(ref_res.targets)
            inst.update(ref_res.instantiates)
        # A class's __init__ pulls in no other methods by itself; but an
        # instantiation makes every method of the class callable by the
        # holder — model that as edges from the instantiating function.
        for clskey in list(inst):
            cls = index.classes.get(clskey)
            if cls is None:
                continue
            cls_path = clskey.split("::", 1)[0]
            for method in cls.methods:
                target = f"{cls_path}::{cls.name}.{method}"
                if target in index.functions:
                    edges.add(target)
    return graph

