"""Finding and suppression primitives for simlint.

A :class:`Finding` pins one rule violation to a file and line.  Findings
are plain data: hashable, sortable, and round-trippable through the
``--json`` report.

Inline suppressions, the one way to accept a finding, use the
conventional comment form::

    frobnicate(time.time())  # simlint: disable=SIM101
    # simlint: disable=SIM104,SIM302   (several codes)
    # simlint: disable                 (every code on this line)

A suppression applies to findings anchored anywhere in the statement
containing its physical line: a comment on the first (or last) line of a
multi-line call, decorator, or comprehension covers findings reported on
any of its continuation lines (:func:`expand_suppressions`).  For
compound statements (``def``/``for``/``if``/…) only the header span is
covered, so a suppression on a ``for`` line does not blanket the body.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

__all__ = ["Finding", "parse_suppressions", "expand_suppressions",
           "is_suppressed"]

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?:=(?P<codes>[A-Z0-9, ]+))?")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str       # posix path relative to the lint root, e.g. "repro/cli.py"
    line: int       # 1-based
    col: int        # 0-based, as reported by ast
    code: str       # e.g. "SIM104"
    message: str

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(path=data["path"], line=int(data["line"]),
                   col=int(data.get("col", 0)), code=data["code"],
                   message=data["message"])

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed codes (``None`` = every code)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
    return out


def _statement_spans(tree: ast.Module) -> List[range]:
    """Line spans of statements, each a candidate suppression scope.

    Simple statements span ``lineno..end_lineno``.  Compound statements
    contribute only their header (decorators + signature/test up to the
    line before the first body statement) so a suppression comment on a
    ``def``/``for``/``if`` line never silences its whole body.
    """
    from .framework import walk  # framework imports this module

    spans: List[range] = []
    for node in walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        body = getattr(node, "body", None)
        if body and isinstance(body, list) and isinstance(body[0], ast.stmt):
            end = max(node.lineno, body[0].lineno - 1)
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, decorators[0].lineno)
        spans.append(range(start, end + 1))
    return spans


def expand_suppressions(
        tree: ast.Module,
        line_suppressions: Dict[int, Optional[Set[str]]],
) -> Dict[int, Optional[Set[str]]]:
    """Widen line-scoped suppressions to their full statement span."""
    out: Dict[int, Optional[Set[str]]] = {
        line: (None if codes is None else set(codes))
        for line, codes in line_suppressions.items()}
    if not line_suppressions:
        return out
    for span in _statement_spans(tree):
        hits = [line_suppressions[line] for line in span
                if line in line_suppressions]
        if not hits:
            continue
        merged: Optional[Set[str]] = set()
        for codes in hits:
            if codes is None:
                merged = None
                break
            merged.update(codes)  # type: ignore[union-attr]
        for line in span:
            existing = out.get(line, set())
            if merged is None or existing is None:
                out[line] = None
            else:
                out[line] = set(existing) | merged
    return out


def is_suppressed(finding: Finding,
                  suppressions: Dict[int, Optional[Set[str]]]) -> bool:
    codes = suppressions.get(finding.line, "missing")
    if codes == "missing":
        return False
    return codes is None or finding.code in codes
