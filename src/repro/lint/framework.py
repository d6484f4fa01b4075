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
  (``--project``).  Both runners filter by ``--only`` and fold inline
  suppressions the same way (:func:`fold_findings`).
* One cache file (:class:`LintCache`) keeps each file's raw findings and
  symbol summary, so an unchanged file is neither parsed nor walked.

A per-file rule implements any subset of::

    visit_<NodeType>(node, ctx)
    end_file(ctx)            # file fully walked; ctx.scopes complete

and reports via ``self.report(ctx, node, message)``.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pickle
import re
import sys
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple, Type, TypeVar, Union)

from ..envvars import cache_dir_override
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
                  parse_errors: Iterable[Finding],
                  only: Optional[Set[str]] = None) -> LintResult:
    """Keep the findings whose code is in ``only`` (default: all), then
    drop (and count) those an inline suppression covers."""
    active: List[Finding] = []
    suppressed = 0
    for finding in findings:
        if only is not None and finding.code not in only:
            continue
        if is_suppressed(finding, suppressions.get(finding.path, {})):
            suppressed += 1
        else:
            active.append(finding)
    return LintResult(findings=sorted(active), suppressed=suppressed,
                      files_checked=files_checked,
                      parse_errors=sorted(parse_errors))


Visitor = Callable[[ast.AST, FileContext], None]


@dataclass
class FileLint:
    """One file's per-file lint outcome, before suppressions fold."""

    path: str
    findings: List[Finding]            # raw: every finding of the rules run
    suppressions: Suppressions
    parse_error: Optional[Finding] = None


def _dumps(value: Any) -> bytes:
    return pickle.dumps(value, pickle.HIGHEST_PROTOCOL)


def _cache_key() -> str:
    """What every entry depends on besides its path and source.  SIM501
    reads the model registry, so the registered names are part of it."""
    from .. import iomodels

    hasher = hashlib.sha256(b"%d.%d" % sys.version_info[:2])
    for path in sorted(Path(__file__).parent.glob("*.py")):
        hasher.update(path.name.encode() + b"\0" + path.read_bytes())
    hasher.update(repr((sorted(registered_rules()),
                        sorted(iomodels.model_names()))).encode())
    return hasher.hexdigest()


class LintCache:
    """The one lint cache file, ``lint.pkl`` in ``cache_dir`` (default
    ``$REPRO_CACHE_DIR`` or ``.repro_cache``): a key (:func:`_cache_key`);
    per path, the SHA-256 of (path, source), a pickled :class:`FileLint`
    and a pickled ``ModuleSummary`` (files under ``repro/``), apart so a
    run unpickles only what it reads; then the project entry.  Written via
    a temporary file and ``replace`` (the last writer wins); bad data is a
    miss, write errors are ignored; ``use_cache=False`` bypasses it."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 use_cache: bool = True) -> None:
        self.blobs: Dict[str, Tuple[str, bytes, Optional[bytes]]] = {}
        self.project: Optional[bytes] = None
        self.misses = 0
        self.dirty = False
        self.file = Path(cache_dir or cache_dir_override() or ".repro_cache",
                         "lint.pkl") if use_cache else None
        if self.file is not None:
            self.key = _cache_key()
            with suppress(Exception), self.file.open("rb") as handle:
                if pickle.load(handle) == self.key:
                    self.blobs = pickle.load(handle)
                    self.project = pickle.load(handle)

    def get(self, path: str, digest: str,
            summary: bool) -> Optional[Tuple[FileLint, Any]]:
        """The findings (and summary, if asked) stored for ``digest``."""
        with suppress(Exception):  # absent, corrupt or lacking a part
            stored, lint, summary_part = self.blobs[path]
            if stored == digest:
                return (pickle.loads(lint),
                        pickle.loads(summary_part) if summary else None)
        return None

    def put(self, path: str, digest: str, lint: FileLint,
            summary: Any) -> None:
        self.misses += 1
        if self.file is not None:
            # Pickled per part: one pickle of all entries raised peak RSS 6%.
            self.blobs[path] = (digest, _dumps(lint), None if summary is None
                                else _dumps(summary))
            self.dirty = True

    def _tree_key(self, paths: Iterable[str]) -> str:
        return hashlib.sha256(repr([(path, self.blobs[path][0])
                                    for path in paths]).encode()).hexdigest()

    def get_project(self, paths: Iterable[str]) -> Optional[List[Finding]]:
        """The raw SIM6xx findings stored for ``paths``' entries, or None."""
        with suppress(Exception):  # absent, truncated, foreign or stale
            stored, findings = pickle.loads(self.project or b"")
            if stored == self._tree_key(paths):
                return findings
        return None

    def put_project(self, paths: Iterable[str],
                    findings: List[Finding]) -> None:
        if self.file is not None:
            self.project = _dumps((self._tree_key(paths), findings))
            self.dirty = True

    def save(self) -> None:
        """Write the file if this run changed an entry."""
        if self.file is None or not self.dirty:
            return
        tmp = self.file.with_name(f".lint.{os.getpid()}.tmp")
        try:
            self.file.parent.mkdir(parents=True, exist_ok=True)
            with tmp.open("wb") as handle:
                for part in (self.key, self.blobs, self.project):
                    pickle.dump(part, handle, pickle.HIGHEST_PROTOCOL)
            tmp.replace(self.file)
        except OSError:
            with suppress(OSError):
                tmp.unlink()


class ProjectLinter:
    """Runs every per-file rule over a set of sources, one walk each."""

    def __init__(self, only: Optional[Iterable[str]] = None):
        self.rules: List[Rule] = [cls() for cls in select_rules(None, Rule)]
        self.only = None if only is None else {
            cls.code for cls in select_rules(only, Rule)}
        self._visitors: Dict[type, List[Visitor]] = {}
        self.files: List[FileLint] = []

    def _visitors_for(self, kind: type) -> List[Visitor]:
        method = f"visit_{kind.__name__}"
        visitors = [getattr(rule, method) for rule in self.rules
                    if hasattr(rule, method)]
        self._visitors[kind] = visitors
        return visitors

    def add_cached(self, path: str, source: str, cache: LintCache,
                   summary: bool = False) -> Any:
        """Take one file's findings (and, with ``summary``, its summary)
        from ``cache``, or parse it once for both and store them (the
        summary of any file under ``repro/``); return the summary."""
        digest = hashlib.sha256(f"{path}\0{source}".encode()).hexdigest()
        hit = cache.get(path, digest, summary)
        if hit is not None:
            self.files.append(hit[0])
            return hit[1]
        parsed = parse_file(path, source)
        lint = self.add_file(path, parsed)
        built = None
        if summary or (cache.file is not None and path.startswith("repro/")):
            from .symbols import summarize_file
            built = summarize_file(path, parsed)
        cache.put(path, digest, lint, built)
        return built

    def add_file(self, path: str,
                 parsed: Union[FileContext, SyntaxError]) -> FileLint:
        """Walk one parsed file (see :func:`parse_file`)."""
        if isinstance(parsed, SyntaxError):
            self.files.append(FileLint(path, [], {}, Finding(
                path=path, line=parsed.lineno or 1, col=parsed.offset or 0,
                code="SIM000", message=f"file does not parse: {parsed.msg}")))
            return self.files[-1]
        ctx = parsed
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
        findings: List[Finding] = []
        for rule in self.rules:
            rule.end_file(ctx)
            findings += rule.findings
            rule.findings.clear()
        self.files.append(FileLint(path, findings, ctx.suppressions))
        return self.files[-1]

    def run(self) -> LintResult:
        """Filter the collected findings by ``only``; fold suppressions."""
        suppressions = {lint.path: lint.suppressions for lint in self.files
                        if lint.parse_error is None}
        return fold_findings(
            (finding for lint in self.files for finding in lint.findings),
            suppressions, len(suppressions),
            [lint.parse_error for lint in self.files
             if lint.parse_error is not None], self.only)


def lint_sources(files: Mapping[str, str],
                 only: Optional[Iterable[str]] = None) -> LintResult:
    """Lint in-memory sources (``{path: source}``) — the test entry point."""
    linter = ProjectLinter(only=only)
    for path in sorted(files):
        linter.add_file(path, parse_file(path, files[path]))
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
    base = root.resolve()
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(base).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        yield rel, file_path.read_text(encoding="utf-8")


def lint_paths(paths: Optional[Iterable[Path]] = None,
               root: Optional[Path] = None,
               only: Optional[Iterable[str]] = None,
               use_cache: bool = True,
               cache_dir: Optional[Path] = None) -> LintResult:
    """Lint files on disk (default: the ``repro`` package), cached."""
    root = root or default_lint_root()
    if paths is None:
        paths = [root / "repro"]
    linter = ProjectLinter(only=only)
    cache = LintCache(cache_dir, use_cache)
    for rel, source in read_sources((Path(p) for p in paths), root):
        linter.add_cached(rel, source, cache)
    cache.save()
    return linter.run()
