"""FBS001: key material must never leak through debug/compare sinks.

The FBS security argument (paper Sections 5.2, 6.1) rests on flow and
master keys staying secret.  This rule runs a light intra-module taint
analysis: any value produced by a key-derivation call (``flow_key``,
``master_key``, ``encryption_key``, ``mac_key``, ``agree``, ...) is
tainted, taint propagates through assignment/slicing/concatenation, and
a tainted value reaching ``print``/``repr``/a logging call/an f-string
is a leak.  A tainted value in an ``==``/``!=`` comparison is a timing
channel: digest and key compares must go through
:func:`repro.crypto.mac.constant_time_equal`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.base import Rule, call_name, register
from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity

__all__ = ["SecretFlowRule"]

#: A call whose target name contains one of these is a taint source.
_SOURCE_FRAGMENTS = (
    "flow_key",
    "master_key",
    "mac_key",
    "encryption_key",
    "session_key",
    "interval_key",
    "derive_key",
)
#: Exact call names that are also taint sources (DH agreement).
_SOURCE_NAMES = {"agree"}

_LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical", "log"}

#: Array constructors/combinators that return (a view of) their array
#: arguments: key bytes fed to these stay key material
#: (``repro.crypto.vector`` moves MAC keys and DES round masks through
#: ndarrays; ``np.take(masks, lanes)`` gathers key rows, it does not
#: launder them).
_NDARRAY_FUNCS = {
    "array",
    "asarray",
    "ascontiguousarray",
    "concatenate",
    "frombuffer",
    "stack",
    "take",
}
#: ndarray methods that re-expose the receiver's bytes under a new
#: shape/dtype/container -- taint follows the receiver through them.
_NDARRAY_METHODS = {
    "astype",
    "copy",
    "flatten",
    "ravel",
    "reshape",
    "take",
    "tobytes",
    "transpose",
    "view",
}


def _is_source_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    return name in _SOURCE_NAMES or any(f in name for f in _SOURCE_FRAGMENTS)


class _Taint:
    """Module-wide tainted-name tracking (a lint heuristic, not a proof)."""

    def __init__(self, tree: ast.Module) -> None:
        self.names: Set[str] = set()
        # Two propagation passes reach a fixpoint for the chains that
        # occur in practice (a = derive(); b = a[:8]; c = b + iv).
        for _ in range(2):
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and self.expr(node.value):
                    for target in node.targets:
                        self._taint_target(target)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if self.expr(node.value):
                        self._taint_target(node.target)

    def _taint_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._taint_target(elt)

    def expr(self, node: ast.AST) -> bool:
        """Is this expression (transitively) key material?"""
        if _is_source_call(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Subscript):
            return self.expr(node.value)
        if isinstance(node, ast.BinOp):
            return self.expr(node.left) or self.expr(node.right)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self.expr(elt) for elt in node.elts)
        if isinstance(node, ast.Starred):
            return self.expr(node.value)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            # np.frombuffer(key) and friends: the array is the key.
            if func.attr in _NDARRAY_FUNCS and any(
                self.expr(arg) for arg in node.args
            ):
                return True
            # tainted.astype(...).tobytes() etc.: taint follows the
            # receiver through reshaping/re-encoding methods.
            if func.attr in _NDARRAY_METHODS and self.expr(func.value):
                return True
        return False

    def describe(self, node: ast.AST) -> str:
        """Human-readable handle on the tainted expression."""
        if isinstance(node, ast.Name):
            return repr(node.id)
        if isinstance(node, ast.Call):
            return f"{call_name(node)}() result"
        if isinstance(node, ast.Subscript):
            return self.describe(node.value)
        if isinstance(node, ast.BinOp):
            for side in (node.left, node.right):
                if self.expr(side):
                    return self.describe(side)
        return "key material"


@register
class SecretFlowRule(Rule):
    rule_id = "FBS001"
    name = "secret-flow-taint"
    severity = Severity.ERROR
    description = (
        "key-derivation results must not reach print/repr/logging/f-strings "
        "(taint follows ndarray views/copies), and must be compared via "
        "constant_time_equal, never ==/!="
    )
    rationale = "paper SS5.2/SS6.1 (key secrecy); DESIGN.md 'Enforced invariants'"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        taint = _Taint(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                sink = self._call_sink(node)
                if sink is not None:
                    bad = self._tainted_arg(node, taint)
                    if bad is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"key material ({taint.describe(bad)}) passed to "
                            f"{sink} -- secrets must never be rendered",
                        )
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node, taint)
            elif isinstance(node, ast.FormattedValue):
                if taint.expr(node.value):
                    yield self.finding(
                        ctx,
                        node,
                        f"key material ({taint.describe(node.value)}) "
                        "interpolated into an f-string",
                    )

    @staticmethod
    def _call_sink(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("print", "repr", "str", "format"):
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS:
            return f"logging call .{func.attr}()"
        return None

    @staticmethod
    def _tainted_arg(node: ast.Call, taint: _Taint) -> Optional[ast.AST]:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if taint.expr(arg):
                return arg
            # print(f"... {key} ...") leaks through the f-string arg.
            if isinstance(arg, ast.JoinedStr):
                for part in arg.values:
                    if isinstance(part, ast.FormattedValue) and taint.expr(
                        part.value
                    ):
                        return part.value
        return None

    def _check_compare(
        self, ctx: ModuleContext, node: ast.Compare, taint: _Taint
    ) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if taint.expr(side):
                    yield self.finding(
                        ctx,
                        node,
                        f"key material ({taint.describe(side)}) compared with "
                        "==/!= -- use repro.crypto.mac.constant_time_equal",
                    )
                    break
