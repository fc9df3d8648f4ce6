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
  name contains ``reject``.
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
from typing import Iterator, List, Optional, Set

from repro.analysis.base import Rule, dotted_name, register
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity

__all__ = ["MetricsBeforeRaiseRule"]

_RECEIVE_ERRORS = {
    "ReceiveError",
    "StaleTimestampError",
    "MacMismatchError",
    "HeaderFormatError",
}


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    if isinstance(exc, ast.Name):
        return exc.id
    return None


def _handler_names(handler: ast.ExceptHandler) -> Set[str]:
    """Exception class names caught by one handler."""
    node = handler.type
    names: Set[str] = set()
    if node is None:
        return names
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in items:
        if isinstance(item, ast.Attribute):
            names.add(item.attr)
        elif isinstance(item, ast.Name):
            names.add(item.id)
    return names


def _is_metrics_bump(stmt: Optional[ast.stmt]) -> bool:
    if (
        isinstance(stmt, ast.AugAssign)
        and isinstance(stmt.op, ast.Add)
        and "metrics" in dotted_name(stmt.target).split(".")
    ):
        return True
    # A rejection-bookkeeping call, e.g. ``self._rejected(...)``.
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        segments = dotted_name(stmt.value.func).split(".")
        return bool(segments) and "reject" in segments[-1]
    return False


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
        yield from self._block(ctx, ctx.tree.body, set(), preceding=None)
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

    def _block(
        self,
        ctx: ModuleContext,
        stmts: List[ast.stmt],
        caught: Set[str],
        preceding: Optional[ast.stmt],
    ) -> Iterator[Finding]:
        for i, stmt in enumerate(stmts):
            prev = stmts[i - 1] if i > 0 else preceding
            if isinstance(stmt, ast.Raise):
                name = _raised_name(stmt)
                is_receive = name in _RECEIVE_ERRORS or (
                    name is None and caught & _RECEIVE_ERRORS
                )
                if is_receive and not _is_metrics_bump(prev):
                    label = name or "re-raise"
                    yield self.finding(
                        ctx,
                        stmt,
                        f"{label} raised without a preceding metrics counter "
                        "increment -- bump the drop counter first so the "
                        "rejection is observable",
                    )
                continue
            # Recurse; a raise opening a nested block may rely on the
            # statement just before that block (bump-then-if patterns).
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    yield from self._block(ctx, inner, caught, preceding=prev)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._block(
                    ctx,
                    handler.body,
                    caught | _handler_names(handler),
                    preceding=prev,
                )
