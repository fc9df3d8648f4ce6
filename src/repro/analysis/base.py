"""The fbslint rule framework: base class and registry.

A rule is a small object with an id (``FBS0xx``), a severity, a
one-line description (shown by ``--list-rules`` and quoted in
DESIGN.md), and -- where the invariant is a property of one module's
syntax -- a ``check`` method that walks the module AST and yields
:class:`~repro.analysis.findings.Finding` objects.  Rules register
themselves via the :func:`register` decorator; the engine runs every
registered rule unless ``--select``/``--ignore`` narrows the set.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Type

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding, Severity

__all__ = ["Rule", "register", "all_rules", "get_rule"]


class Rule:
    """Base class for fbslint rules."""

    #: Stable identifier used in reports and suppressions.
    rule_id: str = "FBS000"
    #: Short name (kebab case) used in ``--list-rules`` output.
    name: str = "abstract-rule"
    severity: Severity = Severity.WARNING
    #: One-line summary of the invariant the rule protects.
    description: str = ""
    #: Paper/DESIGN.md anchor the invariant comes from.
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module's AST.

        The default yields nothing: a rule whose findings come from the
        whole-program passes (:mod:`repro.analysis.dataflow`) or from
        the engine's suppression filter exists here as an id, a
        severity, a ``--list-rules`` row and a DESIGN.md table entry.
        """
        return iter(())

    # -- helpers shared by concrete rules ------------------------------------------

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule (as a singleton) to the registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_REGISTRY[rid] for rid in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}") from None


def _load_builtin_rules() -> None:
    """Import the rule modules exactly once (they self-register)."""
    import repro.analysis.rules  # noqa: F401  (import for side effect)


# -- AST utilities used by several rules -----------------------------------------------


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        # Chain rooted in a call/subscript: mark the unknown root.
        parts.append("?")
    return ".".join(reversed(parts))


def call_name(call: ast.Call) -> str:
    """The trailing identifier of a call target (``x.y.f()`` -> ``f``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""
