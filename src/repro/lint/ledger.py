"""SIM2xx — cycle-ledger rules.

The paper's evaluation *is* event and cycle accounting (Table 3 counts
exits/interrupts per request; Figure 10 divides per-tag cycles by packet
counts).  The ledger stays trustworthy only while every cycle charged to
a core traces back to a calibrated CostModel constant rather than a stray
literal:

* SIM202 — magic charge: a numeric literal passed straight to
  ``Core.execute()``/``Core.stall()`` bypasses the calibrated catalog.

That every CostModel field feeds a charge at all is a whole-program
question; SIM602 (:mod:`.project`) answers it over the call graph.
"""

from __future__ import annotations

import ast

from .framework import FileContext, Rule, register_rule

__all__ = []

_CHARGE_METHODS = {"execute", "stall"}


@register_rule
class MagicChargeRule(Rule):
    code = "SIM202"
    name = "magic-cycle-literal"
    rationale = ("Cycles charged to cores must come from CostModel "
                 "attributes so calibration stays in one catalog and the "
                 "sweep cache can fingerprint it.")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr not in _CHARGE_METHODS:
            return
        candidates = list(node.args[:1]) + [
            kw.value for kw in node.keywords
            if kw.arg in ("cycles", "duration_ns")]
        for arg in candidates:
            if isinstance(arg, ast.Constant) and \
                    isinstance(arg.value, (int, float)) and \
                    not isinstance(arg.value, bool) and arg.value != 0:
                self.report(ctx, arg,
                            f"numeric literal {arg.value!r} charged via "
                            f".{node.func.attr}(); use a CostModel "
                            f"attribute so the constant is calibrated and "
                            f"fingerprinted")
