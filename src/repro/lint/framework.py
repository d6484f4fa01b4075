"""The simlint engine: one AST pass per file, a registry of rules.

Design
------
* Every file is parsed once and walked once.  During the walk each node
  is dispatched to every registered rule's ``visit_<NodeType>`` method
  (if present), so adding a rule never adds a traversal.
* Rules are *stateful per run*: one instance services the whole project,
  which is what lets cross-file rules (the SIM2xx cycle-ledger checks)
  collect definitions in one file and uses in another, then emit their
  findings in :meth:`Rule.finalize`.
* Parent links are annotated onto nodes (``_simlint_parent``) before
  dispatch, so rules can inspect context (is this call the argument of
  ``sorted``?) without their own walks.

A rule implements any subset of::

    begin_file(ctx)          # file opened
    visit_<NodeType>(node, ctx)
    end_file(ctx)            # file fully walked
    finalize()               # all files walked; cross-file verdicts

and reports via ``self.report(ctx, node, message)`` (or
``self.report_at(path, line, col, message)`` from ``finalize``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Type

from .findings import (Finding, expand_suppressions, is_suppressed,
                       parse_suppressions)

__all__ = [
    "FileContext",
    "Rule",
    "register_rule",
    "registered_rules",
    "LintResult",
    "ProjectLinter",
    "lint_sources",
    "lint_paths",
    "default_lint_root",
]


@dataclass
class FileContext:
    """Everything a rule may want to know about the file being walked."""

    path: str                    # posix path relative to the lint root
    source: str
    tree: ast.Module
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)

    @property
    def basename(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    def is_module(self, *tails: str) -> bool:
        """True when this file's path ends with any of ``tails``."""
        return any(self.path.endswith(tail) for tail in tails)


# Modules allowed to touch the process environment: the command-line
# surface plus the one sanctioned env-access module.
ENV_MODULES: Tuple[str, ...] = ("repro/cli.py", "repro/__main__.py",
                                "repro/envvars.py")


class Rule:
    """Base class for simlint rules.

    Subclasses set ``code`` (``SIMxxx``), ``name`` (kebab-case slug) and
    ``rationale`` (one sentence: the invariant the rule protects).
    ``tree_scoped = True`` marks a rule whose verdict is only sound over
    the complete tree (it collects declarations in one file and uses in
    all the others); such rules are skipped when linting a partial file
    set (``--changed``) unless explicitly requested via ``--only``.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    tree_scoped: bool = False

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    # -- hooks (all optional) ------------------------------------------------

    def begin_file(self, ctx: FileContext) -> None:  # pragma: no cover
        pass

    def end_file(self, ctx: FileContext) -> None:  # pragma: no cover
        pass

    def finalize(self) -> None:  # pragma: no cover
        pass

    # -- reporting -----------------------------------------------------------

    def report(self, ctx: FileContext, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            path=ctx.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0), code=self.code,
            message=message))

    def report_at(self, path: str, line: int, col: int, message: str) -> None:
        self.findings.append(Finding(path=path, line=line, col=col,
                                     code=self.code, message=message))


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code or not cls.name:
        raise ValueError(f"rule {cls.__name__} needs code and name")
    if cls.code in _RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    _RULES[cls.code] = cls
    return cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """The registry, importing the stock rule families on first use."""
    from . import determinism, events, ledger, models, telemetry  # noqa: F401
    return dict(_RULES)


def annotate_parents(tree: ast.Module) -> None:
    """Attach ``_simlint_parent`` to every node (module root gets None)."""
    tree._simlint_parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._simlint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_simlint_parent", None)


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: List[Finding]            # active findings (post-suppression,
                                       # post-baseline)
    suppressed: int                    # count silenced by inline comments
    baselined: int                     # count silenced by the baseline file
    files_checked: int
    parse_errors: List[Finding]        # files that failed to parse

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def all_findings(self) -> List[Finding]:
        return sorted(self.findings + self.parse_errors)


class ProjectLinter:
    """Runs every registered rule over a set of sources in one pass each."""

    def __init__(self, only: Optional[Iterable[str]] = None,
                 skip_tree_scoped: bool = False):
        registry = registered_rules()
        codes = sorted(registry) if only is None else sorted(only)
        unknown = [c for c in codes if c not in registry]
        if unknown:
            raise KeyError(f"unknown rule code(s): {', '.join(unknown)}; "
                           f"known: {', '.join(sorted(registry))}")
        if skip_tree_scoped and only is None:
            # A partial file set can't support whole-tree verdicts (a
            # use in an unlinted file would read as dead); an explicit
            # --only request still wins.
            codes = [c for c in codes if not registry[c].tree_scoped]
        self.rules: List[Rule] = [registry[c]() for c in codes]
        self._contexts: List[FileContext] = []
        self._parse_errors: List[Finding] = []

    def add_source(self, path: str, source: str) -> None:
        """Parse and walk one file, dispatching to every rule."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self._parse_errors.append(Finding(
                path=path, line=exc.lineno or 1, col=exc.offset or 0,
                code="SIM000", message=f"file does not parse: {exc.msg}"))
            return
        annotate_parents(tree)
        ctx = FileContext(path=path, source=source, tree=tree,
                          suppressions=expand_suppressions(
                              tree, parse_suppressions(source)))
        self._contexts.append(ctx)
        for rule in self.rules:
            rule.begin_file(ctx)
        for node in ast.walk(tree):
            method = f"visit_{type(node).__name__}"
            for rule in self.rules:
                visitor = getattr(rule, method, None)
                if visitor is not None:
                    visitor(node, ctx)
        for rule in self.rules:
            rule.end_file(ctx)

    def run(self, baseline: Optional[Set[Tuple[str, str, str]]] = None
            ) -> LintResult:
        """Finalize cross-file rules and assemble the result."""
        for rule in self.rules:
            rule.finalize()
        suppression_of = {ctx.path: ctx.suppressions
                          for ctx in self._contexts}
        active: List[Finding] = []
        suppressed = baselined = 0
        for rule in self.rules:
            for finding in rule.findings:
                if is_suppressed(finding,
                                 suppression_of.get(finding.path, {})):
                    suppressed += 1
                elif baseline and (finding.path, finding.code,
                                   finding.message) in baseline:
                    baselined += 1
                else:
                    active.append(finding)
        return LintResult(findings=sorted(active), suppressed=suppressed,
                          baselined=baselined,
                          files_checked=len(self._contexts),
                          parse_errors=sorted(self._parse_errors))


def lint_sources(files: Mapping[str, str],
                 only: Optional[Iterable[str]] = None,
                 baseline: Optional[Set[Tuple[str, str, str]]] = None,
                 skip_tree_scoped: bool = False) -> LintResult:
    """Lint in-memory sources (``{path: source}``) — the test entry point."""
    linter = ProjectLinter(only=only, skip_tree_scoped=skip_tree_scoped)
    for path in sorted(files):
        linter.add_source(path, files[path])
    return linter.run(baseline=baseline)


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


def lint_paths(paths: Optional[Iterable[Path]] = None,
               root: Optional[Path] = None,
               only: Optional[Iterable[str]] = None,
               baseline: Optional[Set[Tuple[str, str, str]]] = None,
               skip_tree_scoped: bool = False) -> LintResult:
    """Lint files on disk.  Defaults to the whole ``repro`` package."""
    root = root or default_lint_root()
    if paths is None:
        paths = [root / "repro"]
    linter = ProjectLinter(only=only, skip_tree_scoped=skip_tree_scoped)
    for file_path in iter_python_files(Path(p) for p in paths):
        try:
            rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        linter.add_source(rel, file_path.read_text(encoding="utf-8"))
    return linter.run(baseline=baseline)
