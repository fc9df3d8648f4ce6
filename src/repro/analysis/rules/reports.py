"""FBS011: deterministic report serialization.

The resilience and load layers promise byte-identical reports for
identical inputs (their CI smokes run twice and ``cmp`` the outputs).
Two constructs quietly break that promise: iterating an unordered
``set``/``frozenset`` into report output, and ``json.dump``/``dumps``
without ``sort_keys=True``.  The whole-program set-provenance pass in
:mod:`repro.analysis.dataflow` tracks set-typed values through calls,
returns, and attribute stores, and flags -- inside the report-producing
packages (``repro.resilience``, ``repro.load``, ``repro.obs``,
``repro.analysis``) -- any ``for``/comprehension/``list()``/``join``
over one that is not wrapped in ``sorted(...)``, plus any unsorted
``json.dump``.

The findings are produced by the interprocedural pass; this class
exists so the rule has an id, a severity, a ``--list-rules`` row, and a
DESIGN.md table entry like every other rule.
"""

from __future__ import annotations

from repro.analysis.base import Rule, register
from repro.analysis.findings import Severity

__all__ = ["ReportDeterminismRule"]


@register
class ReportDeterminismRule(Rule):
    rule_id = "FBS011"
    name = "deterministic-reports"
    severity = Severity.WARNING
    description = (
        "report modules must not iterate unordered sets into output or call "
        "json.dump without sort_keys=True; reports are byte-identical"
    )
    rationale = (
        "DESIGN.md sections 9-10: resilience and load reports are replayed "
        "and diffed byte-for-byte; iteration order is part of the contract"
    )
