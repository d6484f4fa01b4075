"""Per-file fact extraction for the whole-program analysis layer.

One parse per file produces a pickleable :class:`ModuleSummary`: the
module's import table, classes (with their methods and class-body
fields), and one :class:`FunctionSummary` per function/method plus a
``<module>`` pseudo-function for module-level statements.  Summaries are
everything the project passes (:mod:`repro.lint.callgraph`,
:mod:`repro.lint.dataflow`, the SIM6xx rules) need — the AST itself is
never kept, which is what makes the incremental cache (pickle per file,
keyed by source digest) possible.

Origin tokens
-------------
Local dataflow inside each function is folded into string tokens so the
summary stays flat:

* ``SRC@<line>``   — a raw RNG (``random.Random(...)`` / ``random.*``
  draw) created at ``<line>``; the one sanctioned constructor site,
  ``repro/sim/rng.py``, is exempt.
* ``PARAM:<i>``    — the value of positional parameter ``i``.
* ``RET:<k>``      — the result of this function's ``k``-th recorded
  call (``FunctionSummary.calls[k]``); resolved interprocedurally by
  :mod:`repro.lint.dataflow`.
* ``ATTR:<name>``  — a read of attribute ``<name>`` (field-sensitive,
  object-insensitive).

Calls to ``*.stream(...)`` (the :class:`repro.sim.rng.RngRegistry` API)
deliberately produce *no* origin: a registry stream is the clean source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from .framework import FileContext, child_nodes, parse_file, walk

__all__ = [
    "CallFact",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "extract_module",
    "module_name_for",
]

# The sanctioned RNG home: raw random.* is legal only here.
RNG_HOME = "repro/sim/rng.py"

# Last path component of a call chain that charges simulated cycles.
CHARGE_METHODS = frozenset({"execute", "stall"})

# Last component of a call chain that consumes simulated time (an
# alternative legitimate destiny for a CostModel field: delays/timeouts).
TIME_SINK_METHODS = frozenset({"timeout", "call_soon", "schedule_at",
                               "schedule", "sleep"})

# Call chains whose callback/argument escapes into the event system
# (SIM601 sinks, SIM302 subscription points).
EVENT_SINK_METHODS = frozenset({"call_soon", "schedule_at", "timeout",
                                "add_callback", "prepend_callback",
                                "process", "subscribe"})

# Serialization sinks for SIM601: a raw-RNG-derived value written out.
JSON_SINKS = frozenset({"json.dump", "json.dumps"})

# random-module draw functions that mint nondeterminism directly.
_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "random_bytes",
    "randbytes", "Random", "SystemRandom",
})


@dataclass(frozen=True)
class CallFact:
    """One call site inside a function."""

    callee: str                              # dotted chain as written
    lineno: int
    col: int
    arg_origins: Tuple[FrozenSet[str], ...]  # per positional argument
    kw_origins: Tuple[Tuple[str, FrozenSet[str]], ...]
    func_args: Tuple[str, ...]               # callables passed by name


@dataclass
class FunctionSummary:
    """Flow facts for one function, method, or ``<module>`` body."""

    qualname: str
    lineno: int
    col: int
    params: Tuple[str, ...] = ()
    calls: List[CallFact] = field(default_factory=list)
    attr_reads: Set[str] = field(default_factory=set)
    attr_writes: List[Tuple[str, FrozenSet[str]]] = field(
        default_factory=list)
    returns: List[FrozenSet[str]] = field(default_factory=list)
    charge_lines: List[int] = field(default_factory=list)
    time_sink_lines: List[int] = field(default_factory=list)
    stored_refs: List[str] = field(default_factory=list)
    # ^ dotted chains assigned somewhere (``nic.on_notify = self._on_rx``):
    #   address-taken callables the call graph turns into reference edges.


@dataclass
class ClassSummary:
    name: str
    lineno: int
    bases: Tuple[str, ...] = ()
    methods: Set[str] = field(default_factory=set)
    class_fields: Tuple[str, ...] = ()  # class-body (Ann)Assign names
    field_lines: Dict[str, int] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the project layer keeps about one source file."""

    path: str                         # posix path relative to lint root
    module: str                       # dotted module name
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    registered_builders: List[Tuple[str, int]] = field(
        default_factory=list)    # (name referenced by a ModelInfo builder, line)
    suppressions: Dict[int, Optional[Set[str]]] = field(
        default_factory=dict)    # statement-span expanded
    parse_error: Optional[Tuple[int, int, str]] = None


def module_name_for(path: str) -> str:
    """``repro/iomodels/elvis.py`` → ``repro.iomodels.elvis``."""
    parts = path[:-3].split("/") if path.endswith(".py") else path.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _dotted_chain(node: ast.AST) -> Optional[str]:
    """``a.b.c`` → ``"a.b.c"``; anything non-name-rooted → None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if isinstance(node, ast.Call):
        inner = _dotted_chain(node.func)
        if inner is not None:
            parts.append(f"{inner}()")
            return ".".join(reversed(parts))
    return None


def _last(chain: str) -> str:
    return chain.rsplit(".", 1)[-1]


class _FunctionExtractor:
    """Single in-order pass over one function body.

    Keeps a flow-insensitive-per-loop but statement-ordered environment
    ``var -> origin set`` and records every call as a :class:`CallFact`.
    Lambda bodies are folded into the enclosing function's facts.
    """

    def __init__(self, summary: FunctionSummary, module: "ModuleSummary",
                 is_rng_home: bool):
        self.summary = summary
        self.module = module
        self.is_rng_home = is_rng_home
        self.env: Dict[str, Set[str]] = {
            name: {f"PARAM:{i}"} for i, name in enumerate(summary.params)}

    # -- origins ------------------------------------------------------------

    def _is_rng_source(self, chain: str) -> bool:
        if self.is_rng_home:
            return False
        head, _, tail = chain.partition(".")
        target = self.module.imports.get(head, head)
        if target == "random" and (not tail or _last(tail) in _RANDOM_DRAWS):
            return True
        # "from random import Random" / "... import randint"
        if not tail and target.startswith("random.") \
                and _last(target) in _RANDOM_DRAWS:
            return True
        return False

    def origins_of(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            self.summary.attr_reads.add(node.attr)
            return {f"ATTR:{node.attr}"}
        if isinstance(node, ast.Call):
            index = self.record_call(node)
            chain = _dotted_chain(node.func) or ""
            if chain and self._is_rng_source(chain):
                return {f"SRC@{node.lineno}"}
            if chain.endswith(".stream") or _last(chain) == "stream":
                return set()          # RngRegistry.stream: the clean source
            # Method-call results inherit the receiver's taint (a draw
            # from a tainted Random stays tainted); this also records
            # calls sitting in receiver position, e.g. ``make().run()``.
            receiver: Set[str] = set()
            if isinstance(node.func, ast.Attribute):
                receiver = self.origins_of(node.func.value)
            result = {f"RET:{index}"} if index is not None else set()
            return result | receiver
        if isinstance(node, ast.Lambda):
            self.origins_of(node.body)
            return set()
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare, ast.IfExp,
                             ast.UnaryOp, ast.Subscript, ast.Starred,
                             ast.Tuple, ast.List, ast.Set, ast.Dict,
                             ast.JoinedStr, ast.FormattedValue, ast.Await,
                             ast.Yield, ast.YieldFrom, ast.NamedExpr)):
            out: Set[str] = set()
            for child in child_nodes(node):
                if isinstance(child, (ast.expr, ast.keyword)):
                    value = child.value if isinstance(child, ast.keyword) \
                        else child
                    out |= self.origins_of(value)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                iter_origins = self.origins_of(gen.iter)
                for name in _target_names(gen.target):
                    # Comprehension targets do not leak into function
                    # scope — seed origins but record no assignment.
                    self.env[name] = set(iter_origins)
            out = set()
            for child in walk(node):
                if isinstance(child, ast.Call) and child is not node:
                    self.origins_of(child)
            if isinstance(node, ast.DictComp):
                out |= self.origins_of(node.key) | self.origins_of(node.value)
            else:
                out |= self.origins_of(node.elt)  # type: ignore[union-attr]
            return out
        return set()

    def env_update_from(self, target: ast.AST, origins: Set[str]) -> None:
        for name in _target_names(target):
            self.env[name] = set(origins)

    # -- calls --------------------------------------------------------------

    def record_call(self, node: ast.Call) -> Optional[int]:
        chain = _dotted_chain(node.func)
        if chain is None:
            if isinstance(node.func, ast.Lambda):
                self.origins_of(node.func.body)
            for arg in node.args:
                self.origins_of(arg)
            for kw in node.keywords:
                self.origins_of(kw.value)
            return None
        func_args: List[str] = []
        arg_origins: List[FrozenSet[str]] = []
        for arg in node.args:
            ref = _dotted_chain(arg) if isinstance(
                arg, (ast.Name, ast.Attribute)) else None
            if ref is not None:
                func_args.append(ref)
            if isinstance(arg, ast.Lambda):
                func_args.extend(self._lambda_refs(arg))
            arg_origins.append(frozenset(self.origins_of(arg)))
        kw_origins: List[Tuple[str, FrozenSet[str]]] = []
        for kw in node.keywords:
            ref = _dotted_chain(kw.value) if isinstance(
                kw.value, (ast.Name, ast.Attribute)) else None
            if ref is not None and kw.arg is not None:
                func_args.append(ref)
            if isinstance(kw.value, ast.Lambda):
                func_args.extend(self._lambda_refs(kw.value))
            kw_origins.append((kw.arg or "**",
                               frozenset(self.origins_of(kw.value))))
        fact = CallFact(callee=chain, lineno=node.lineno,
                        col=node.col_offset,
                        arg_origins=tuple(arg_origins),
                        kw_origins=tuple(kw_origins),
                        func_args=tuple(func_args))
        self.summary.calls.append(fact)
        index = len(self.summary.calls) - 1
        last = _last(chain)
        if last in CHARGE_METHODS and "." in chain:
            self.summary.charge_lines.append(node.lineno)
        if last in TIME_SINK_METHODS:
            self.summary.time_sink_lines.append(node.lineno)
        if last == "ModelInfo":
            self._note_builders(node)
        return index

    def _lambda_refs(self, node: ast.Lambda) -> List[str]:
        """Names a lambda wrapper forwards to (reference edges)."""
        bound = {a.arg for a in node.args.args + node.args.kwonlyargs}
        refs: List[str] = []
        for child in walk(node.body):
            if isinstance(child, ast.Name) and child.id not in bound:
                refs.append(child.id)
        return refs

    def _note_builders(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg not in ("build_simple", "build_consolidation"):
                continue
            if isinstance(kw.value, (ast.Name, ast.Attribute)):
                chain = _dotted_chain(kw.value)
                if chain:
                    self.module.registered_builders.append(
                        (chain, kw.value.lineno))
            elif isinstance(kw.value, ast.Lambda):
                for ref in self._lambda_refs(kw.value):
                    self.module.registered_builders.append(
                        (ref, kw.value.lineno))

    # -- statements ---------------------------------------------------------

    def walk_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            origins = self.origins_of(stmt.value)
            self._note_stored_refs(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, origins)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target, self.origins_of(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            origins = self.origins_of(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = set(self.env.get(stmt.target.id, ())) | origins
                self.env[stmt.target.id] = merged
            elif isinstance(stmt.target, ast.Attribute):
                self.summary.attr_writes.append(
                    (stmt.target.attr, frozenset(origins)))
        elif isinstance(stmt, ast.Return):
            origins = self.origins_of(stmt.value)
            if origins:
                self.summary.returns.append(frozenset(origins))
        elif isinstance(stmt, ast.Expr):
            self.origins_of(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.origins_of(stmt.test)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.env_update_from(stmt.target, self.origins_of(stmt.iter))
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                origins = self.origins_of(item.context_expr)
                if item.optional_vars is not None:
                    self.env_update_from(item.optional_vars, origins)
            self.walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            self.walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.origins_of(child)

    def _note_stored_refs(self, value: ast.AST) -> None:
        """Record callables stored by assignment (address-taken)."""
        candidates: List[ast.AST] = [value]
        if isinstance(value, (ast.Tuple, ast.List)):
            candidates = list(value.elts)
        for node in candidates:
            if isinstance(node, (ast.Name, ast.Attribute)):
                chain = _dotted_chain(node)
                if chain is not None:
                    self.summary.stored_refs.append(chain)

    # -- assignment targets --------------------------------------------------

    def _assign_target(self, target: ast.AST, origins: Set[str]) -> None:
        if isinstance(target, ast.Attribute):
            self.summary.attr_writes.append((target.attr, frozenset(origins)))
            self.origins_of(target.value)
        elif isinstance(target, ast.Subscript):
            self.origins_of(target.value)
        else:
            self.env_update_from(target, origins)


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for element in target.elts:
            out.extend(_target_names(element))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _extract_function(module: ModuleSummary, qualname: str,
                      node: ast.AST, body: List[ast.stmt],
                      params: Tuple[str, ...], is_rng_home: bool
                      ) -> FunctionSummary:
    summary = FunctionSummary(
        qualname=qualname, lineno=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0), params=params)
    extractor = _FunctionExtractor(summary, module, is_rng_home)
    extractor.walk_body(body)
    return summary


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> str:
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[:len(parts) - (level - 1)]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


def extract_module(path: str, source: str) -> ModuleSummary:
    """Parse one file and distill it into a :class:`ModuleSummary`."""
    return summarize_file(path, parse_file(path, source))


def summarize_file(path: str, parsed: Union[FileContext, SyntaxError]
                   ) -> ModuleSummary:
    """Distill one :func:`~repro.lint.framework.parse_file` result."""
    module_name = module_name_for(path)
    is_package = path.endswith("__init__.py")
    summary = ModuleSummary(path=path, module=module_name)
    if isinstance(parsed, SyntaxError):
        summary.parse_error = (parsed.lineno or 1, parsed.offset or 0,
                               parsed.msg or "syntax error")
        return summary
    tree = parsed.tree
    summary.suppressions = parsed.suppressions
    is_rng_home = path.endswith(RNG_HOME)

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                summary.imports[local] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            base = _resolve_relative(module_name, is_package,
                                     stmt.level, stmt.module) \
                if stmt.level else (stmt.module or "")
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = f"{base}.{alias.name}" \
                    if base else alias.name

    # Classes, functions, methods.
    module_level: List[ast.stmt] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            fields: List[str] = []
            field_lines: Dict[str, int] = {}
            methods: Set[str] = set()
            for item in stmt.body:
                if isinstance(item, ast.AnnAssign) \
                        and isinstance(item.target, ast.Name):
                    fields.append(item.target.id)
                    field_lines[item.target.id] = item.lineno
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        for name in _target_names(target):
                            fields.append(name)
                            field_lines[name] = item.lineno
                elif isinstance(item, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    methods.add(item.name)
                    qualname = f"{stmt.name}.{item.name}"
                    params = tuple(a.arg for a in item.args.args)
                    summary.functions[qualname] = _extract_function(
                        summary, qualname, item, item.body, params,
                        is_rng_home)
                    _extract_nested(summary, qualname, item, is_rng_home)
            bases = tuple(chain for chain in
                          (_dotted_chain(base) for base in stmt.bases)
                          if chain)
            summary.classes[stmt.name] = ClassSummary(
                name=stmt.name, lineno=stmt.lineno, bases=bases,
                methods=methods, class_fields=tuple(fields),
                field_lines=field_lines)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = tuple(a.arg for a in stmt.args.args)
            summary.functions[stmt.name] = _extract_function(
                summary, stmt.name, stmt, stmt.body, params, is_rng_home)
            _extract_nested(summary, stmt.name, stmt, is_rng_home)
        else:
            module_level.append(stmt)
    summary.functions["<module>"] = _extract_function(
        summary, "<module>", tree, module_level, (), is_rng_home)
    return summary


def _extract_nested(summary: ModuleSummary, parent_qual: str,
                    node: ast.AST, is_rng_home: bool) -> None:
    """Register nested defs as ``outer.inner`` functions (one level)."""
    for stmt in walk(node):
        if stmt is node:
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{parent_qual}.{stmt.name}"
            if qualname in summary.functions:
                continue
            params = tuple(a.arg for a in stmt.args.args)
            summary.functions[qualname] = _extract_function(
                summary, qualname, stmt, stmt.body, params, is_rng_home)
