"""FBS006: every receive-path rejection bumps a metrics counter.

The ROADMAP's production north star needs observable drop reasons: a
datagram rejected without a counter increment is invisible at scale.
The rule binds ``repro.core.protocol`` and ``repro.baselines`` and
knows the two shapes a rejection takes there:

* **Raised.**  A ``raise`` of a :class:`ReceiveError` subclass (or a
  bare ``raise`` inside an ``except ReceiveError-subclass`` block) must
  be immediately preceded -- as its previous sibling statement, or the
  statement just before its enclosing block -- by either an augmented
  ``+=`` on an attribute path containing ``metrics``, or a call whose
  name contains ``reject``.  This half, for the datapath's own raises
  and for helpers they reach alike, is the exception-flow pass in
  :mod:`repro.analysis.dataflow`; the ``check`` below is only the
  second shape, which no summary records.
* **Recorded.**  The staged receive pipeline does not raise per
  datagram: it stores the reason and the typed error into the batch
  result (``result.reasons[i] = ...`` / ``result.errors[i] = ...``).
  A function that makes such a store must itself bump a rejection
  counter (``..._rejected...[reason].inc()``), which is what keeps the
  engine's ``_rejected`` helper the one site that counts, records and
  emits ``DatagramRejected`` together.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, dotted_name, register
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity

__all__ = ["MetricsBeforeRaiseRule"]


def _records_rejection(node: ast.AST) -> bool:
    """``<...>.reasons[i] = ...`` or ``<...>.errors[i] = ...``."""
    if not isinstance(node, ast.Assign):
        return False
    return any(
        isinstance(target, ast.Subscript)
        and dotted_name(target.value).split(".")[-1] in ("reasons", "errors")
        for target in node.targets
    )


def _bumps_rejection_counter(node: ast.AST) -> bool:
    """``<...rejected...>.inc()``, the counter bare or picked by label."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inc"
    ):
        return False
    counter = node.func.value
    if isinstance(counter, ast.Subscript):
        counter = counter.value
    return "reject" in dotted_name(counter)


@register
class MetricsBeforeRaiseRule(Rule):
    rule_id = "FBS006"
    name = "metrics-before-raise"
    severity = Severity.WARNING
    description = (
        "every ReceiveError raised or rejection recorded in "
        "core/protocol.py and baselines/*.py comes with a metrics counter "
        "increment"
    )
    rationale = "rejected datagrams must be countable (ROADMAP observability)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        # The codec layers (header.py, timestamps.py) raise and let the
        # protocol engine count; the discipline binds the engine itself
        # and the baseline receive paths.
        if not (ctx.is_module("core", "protocol") or ctx.in_package("baselines")):
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(func))
            if any(_bumps_rejection_counter(node) for node in nodes):
                continue
            for node in nodes:
                if _records_rejection(node):
                    yield self.finding(
                        ctx,
                        node,
                        f"{func.name} records a rejection without bumping "
                        "the drop counter -- store reason and error only "
                        "where datagrams_rejected is incremented",
                    )
