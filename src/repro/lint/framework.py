"""The simlint engine: one AST walk per file, one registry of rules.

Design
------
* Every file is parsed once and walked once, breadth first.  During the
  walk each node is dispatched to every per-file rule's
  ``visit_<NodeType>`` method (if present), so adding a rule never adds
  a traversal.
* The same walk files every node under its innermost enclosing
  ``def``: ``ctx.scopes`` maps each function to its *own-scope* nodes
  (the def itself, then its body in BFS order, stopping at nested defs,
  which appear as single nodes).  Function-scope rules (SIM402–SIM404)
  read those lists in :meth:`Rule.end_file` instead of re-walking.
* Every traversal in the package uses :func:`child_nodes`/:func:`walk`:
  ``ast.iter_child_nodes``/``ast.walk`` order, read from a per-class
  field table that never visits the ``Load``/``Store``/``Del`` markers.
* One registry holds every rule: the per-file :class:`Rule` families
  and the whole-program :class:`~repro.lint.project.ProjectRule` family
  (``--project``).  Both runners fold inline suppressions the same way
  (:func:`fold_findings`).

A per-file rule implements any subset of::

    visit_<NodeType>(node, ctx)
    end_file(ctx)            # file fully walked; ctx.scopes complete

and reports via ``self.report(ctx, node, message)``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple, Type, TypeVar, Union)

from .findings import (Finding, expand_suppressions, is_suppressed,
                       parse_suppressions)

__all__ = [
    "FileContext",
    "Rule",
    "register_rule",
    "registered_rules",
    "select_rules",
    "fold_findings",
    "LintResult",
    "ProjectLinter",
    "lint_sources",
    "lint_paths",
    "default_lint_root",
]

Suppressions = Dict[int, Optional[Set[str]]]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

# node class -> its ``_fields`` that can hold nodes: ``ctx`` and the
# fields its ASDL signature (the class docstring, e.g.
# ``Name(identifier id, expr_context ctx)``) declares scalar are left out.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}
_SCALAR_FIELD = re.compile(r"\b(?:identifier|string|int|constant)[*?]? (\w+)")


def child_nodes(node: ast.AST) -> List[ast.AST]:
    """``ast.iter_child_nodes(node)`` without the ``expr_context`` markers."""
    fields = _CHILD_FIELDS.get(type(node))
    if fields is None:
        scalar = set(_SCALAR_FIELD.findall(type(node).__doc__ or ""))
        fields = _CHILD_FIELDS[type(node)] = tuple(
            name for name in node._fields
            if name != "ctx" and name not in scalar)
    children: List[ast.AST] = []
    for name in fields:
        value = getattr(node, name, None)
        if type(value) is list:
            children.extend([item for item in value if item is not None])
        elif value is not None:
            children.append(value)
    return children


def walk(node: ast.AST) -> List[ast.AST]:
    """``list(ast.walk(node))`` (breadth first) over :func:`child_nodes`."""
    nodes = [node]
    for current in nodes:
        nodes += child_nodes(current)
    return nodes


@dataclass
class FileContext:
    """Everything a rule may want to know about the file being walked."""

    path: str                    # posix path relative to the lint root
    source: str
    tree: ast.Module
    suppressions: Suppressions = field(default_factory=dict)
    # def node -> its own-scope nodes, filled in by the walk
    scopes: Dict[ast.AST, List[ast.AST]] = field(default_factory=dict)
    _is_module: Dict[Tuple[str, ...], bool] = field(
        default_factory=dict, repr=False, compare=False)

    def is_module(self, *tails: str) -> bool:
        """True when this file's path ends with any of ``tails``."""
        hit = self._is_module.get(tails)
        if hit is None:
            hit = self._is_module[tails] = self.path.endswith(tails)
        return hit


def parse_file(path: str, source: str) -> Union[FileContext, SyntaxError]:
    """The one parse of a file: its context, or why it does not parse."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return exc
    return FileContext(path=path, source=source, tree=tree,
                       suppressions=expand_suppressions(
                           tree, parse_suppressions(source)))


# Modules allowed to touch the process environment: the command-line
# surface plus the one sanctioned env-access module.
ENV_MODULES: Tuple[str, ...] = ("repro/cli.py", "repro/__main__.py",
                                "repro/envvars.py")


class Rule:
    """Base class for per-file simlint rules.

    Subclasses set ``code`` (``SIMxxx``), ``name`` (kebab-case slug) and
    ``rationale`` (one sentence: the invariant the rule protects).
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def end_file(self, ctx: FileContext) -> None:
        pass

    def report(self, ctx: FileContext, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            path=ctx.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0), code=self.code,
            message=message))


_RULES: Dict[str, type] = {}

_R = TypeVar("_R", bound=type)


def register_rule(cls: _R) -> _R:
    """Class decorator adding a rule (per-file or project) to the registry."""
    code, name = getattr(cls, "code", ""), getattr(cls, "name", "")
    if not code or not name:
        raise ValueError(f"rule {cls.__name__} needs code and name")
    if code in _RULES:
        raise ValueError(f"duplicate rule code {code}")
    _RULES[code] = cls
    return cls


def registered_rules() -> Dict[str, type]:
    """The registry, importing the stock rule families on first use."""
    from . import (determinism, events, ledger, models,  # noqa: F401
                   project, telemetry)
    return dict(_RULES)


_K = TypeVar("_K")


def select_rules(only: Optional[Iterable[str]],
                 kind: Type[_K]) -> List[Type[_K]]:
    """The registered rules of ``kind`` among ``only`` (default: all).

    Raises ``KeyError`` naming any code the registry does not know.
    """
    registry = registered_rules()
    codes = sorted(registry) if only is None else sorted(only)
    unknown = [c for c in codes if c not in registry]
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(unknown)}; "
                       f"known: {', '.join(sorted(registry))}")
    return [registry[c] for c in codes if issubclass(registry[c], kind)]


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: List[Finding]            # active findings (post-suppression)
    suppressed: int                    # count silenced by inline comments
    files_checked: int
    parse_errors: List[Finding]        # files that failed to parse

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def all_findings(self) -> List[Finding]:
        return sorted(self.findings + self.parse_errors)


def fold_findings(findings: Iterable[Finding],
                  suppressions: Mapping[str, Suppressions],
                  files_checked: int,
                  parse_errors: Iterable[Finding]) -> LintResult:
    """Drop (and count) the findings an inline suppression covers."""
    active: List[Finding] = []
    suppressed = 0
    for finding in findings:
        if is_suppressed(finding, suppressions.get(finding.path, {})):
            suppressed += 1
        else:
            active.append(finding)
    return LintResult(findings=sorted(active), suppressed=suppressed,
                      files_checked=files_checked,
                      parse_errors=sorted(parse_errors))


Visitor = Callable[[ast.AST, FileContext], None]


class ProjectLinter:
    """Runs every per-file rule over a set of sources, one walk each."""

    def __init__(self, only: Optional[Iterable[str]] = None):
        self.rules: List[Rule] = [cls() for cls in select_rules(only, Rule)]
        self._visitors: Dict[type, List[Visitor]] = {}
        self._suppressions: Dict[str, Suppressions] = {}
        self._parse_errors: List[Finding] = []

    def _visitors_for(self, kind: type) -> List[Visitor]:
        method = f"visit_{kind.__name__}"
        visitors = [getattr(rule, method) for rule in self.rules
                    if hasattr(rule, method)]
        self._visitors[kind] = visitors
        return visitors

    def add_source(self, path: str, source: str) -> None:
        """Parse and walk one file, dispatching to every rule."""
        self.add_file(path, parse_file(path, source))

    def add_file(self, path: str,
                 parsed: Union[FileContext, SyntaxError]) -> None:
        """Walk one parsed file (see :func:`parse_file`)."""
        if isinstance(parsed, SyntaxError):
            self._parse_errors.append(Finding(
                path=path, line=parsed.lineno or 1, col=parsed.offset or 0,
                code="SIM000", message=f"file does not parse: {parsed.msg}"))
            return
        ctx = parsed
        self._suppressions[path] = ctx.suppressions
        scopes = ctx.scopes
        # Breadth first; owners[i] is the innermost def around nodes[i].
        nodes: List[ast.AST] = [ctx.tree]
        owners: List[Optional[ast.AST]] = [None]
        for node, scope in zip(nodes, owners):
            kind = type(node)
            visitors = self._visitors.get(kind)
            if visitors is None:
                visitors = self._visitors_for(kind)
            for visit in visitors:
                visit(node, ctx)
            if scope is not None:
                scopes[scope].append(node)
            if kind in _DEFS:
                scopes[node] = [node]
                scope = node
            children = child_nodes(node)
            nodes += children
            owners += [scope] * len(children)
        for rule in self.rules:
            rule.end_file(ctx)

    def run(self) -> LintResult:
        """Fold suppressions into the collected findings."""
        return fold_findings(
            (finding for rule in self.rules for finding in rule.findings),
            self._suppressions, len(self._suppressions), self._parse_errors)


def lint_sources(files: Mapping[str, str],
                 only: Optional[Iterable[str]] = None) -> LintResult:
    """Lint in-memory sources (``{path: source}``) — the test entry point."""
    linter = ProjectLinter(only=only)
    for path in sorted(files):
        linter.add_source(path, files[path])
    return linter.run()


def default_lint_root() -> Path:
    """The ``src`` directory containing the ``repro`` package."""
    return Path(__file__).resolve().parent.parent.parent


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            out.append(path)
    return sorted(set(out))


def read_sources(paths: Iterable[Path],
                 root: Path) -> Iterator[Tuple[str, str]]:
    """``(path relative to root, source)`` per file, read one at a time."""
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        yield rel, file_path.read_text(encoding="utf-8")


def lint_paths(paths: Optional[Iterable[Path]] = None,
               root: Optional[Path] = None,
               only: Optional[Iterable[str]] = None) -> LintResult:
    """Lint files on disk.  Defaults to the whole ``repro`` package."""
    root = root or default_lint_root()
    if paths is None:
        paths = [root / "repro"]
    linter = ProjectLinter(only=only)
    for rel, source in read_sources((Path(p) for p in paths), root):
        linter.add_source(rel, source)
    return linter.run()
