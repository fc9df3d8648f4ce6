"""FBS004/FBS007: failures must be loud and typed.

* **FBS004** -- ``assert`` compiles away under ``python -O``, so a
  guard written as an assert silently stops guarding in optimized
  deployments.  Library code in ``src/repro`` must raise explicit,
  typed errors; test code keeps its asserts.
* **FBS007** -- nowhere in the tree may a bare ``except:`` or an
  ``except Exception:`` whose body is only ``pass``, ``continue`` or
  ``...`` swallow a failure.  That the public
  protocol surface raises :class:`repro.core.errors.FBSError`
  subclasses only is checked on the running code, by
  ``tests/property/test_receive_contract.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Rule, register
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity

__all__ = ["NoAssertRule", "ExceptionTaxonomyRule"]


@register
class NoAssertRule(Rule):
    rule_id = "FBS004"
    name = "no-assert-in-library"
    severity = Severity.ERROR
    description = (
        "assert statements vanish under python -O; library guards must be "
        "explicit raise statements with typed errors"
    )
    rationale = "guards in src/repro must survive optimized runs (tests excluded)"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_test_code:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx,
                    node,
                    "assert used as a guard in library code; it disappears "
                    "under python -O -- raise a typed error instead",
                )


@register
class ExceptionTaxonomyRule(Rule):
    rule_id = "FBS007"
    name = "exception-taxonomy"
    severity = Severity.WARNING
    description = "no bare except / except-Exception-pass (or continue) anywhere"
    rationale = "a swallowed failure is an invisible one; handlers name what they catch"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)

    def _check_handler(
        self, ctx: ModuleContext, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                "name the exception (an FBSError subclass where applicable)",
            )
            return
        broad = (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        swallows = all(
            isinstance(stmt, (ast.Pass, ast.Continue))
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis)
            for stmt in node.body
        )
        if broad and swallows:
            yield self.finding(
                ctx,
                node,
                f"'except {node.type.id}' with a pass/continue/... body silently "
                "swallows every failure; narrow the type or handle the error",
            )
