"""Reporters: render a :class:`LintResult` as text or JSON.

Both reporters are pure (result -> str) so the CLI and tests share them.
The JSON document is stable: keys are sorted and findings are emitted in
``Finding`` order, so two identical runs produce byte-identical output.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict

from .framework import LintResult, registered_rules

__all__ = ["render_text", "render_json", "render_rule_list",
           "JSON_SCHEMA_VERSION"]

JSON_SCHEMA_VERSION = 2


def render_text(result: LintResult, root: str = "") -> str:
    findings = result.all_findings()
    lines = [f.format() for f in findings]
    counts = Counter(f.code for f in findings)
    if lines:
        lines.append("")
        summary = ", ".join(f"{code}: {n}" for code, n in sorted(counts.items()))
        lines.append(f"{len(findings)} finding(s) "
                     f"({summary}) in {result.files_checked} file(s)")
    else:
        lines.append(f"clean: {result.files_checked} file(s), "
                     f"0 findings")
    if result.suppressed:
        lines.append(f"{result.suppressed} suppressed by inline comments")
    return "\n".join(lines)


def render_json(result: LintResult, root: str = "") -> str:
    counts: Dict[str, int] = dict(
        sorted(Counter(f.code for f in result.all_findings()).items()))
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "root": root,
        "clean": result.clean,
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in result.all_findings()],
        "counts": counts,
        "suppressed": result.suppressed,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """One line per registered rule (per-file and SIM6xx): code, slug,
    rationale."""
    registry = registered_rules()
    lines = []
    for code in sorted(registry):
        cls = registry[code]
        lines.append(f"{code}  {cls.name}")
        lines.append(f"        {cls.rationale}")
    return "\n".join(lines)
