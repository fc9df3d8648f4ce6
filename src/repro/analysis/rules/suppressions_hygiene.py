"""FBS012: unused suppression comments.

A ``# fbslint: disable=FBSxxx`` directive that suppresses nothing is a
trap: the violation it once excused is gone (or never existed), but the
comment keeps a hole open for a future regression to slip through
silently.  After filtering, the engine reports every directive that
absorbed no finding in the run.  The rule is selected like any other
(``--ignore FBS012`` opts out); when ``--select``/``--ignore`` narrowed
the rule set, a directive naming a rule that did not run is left alone
(it is not evidence of rot) and every other directive is still checked.

The findings are produced by the engine's filtering step (it is the
only place that knows which directives matched); this class exists so
the diagnostic has an id, a severity, a ``--list-rules`` row, and a
DESIGN.md table entry like every other rule.
"""

from __future__ import annotations

from repro.analysis.base import Rule, register
from repro.analysis.findings import Severity

__all__ = ["UnusedSuppressionRule"]


@register
class UnusedSuppressionRule(Rule):
    rule_id = "FBS012"
    name = "unused-suppression"
    severity = Severity.WARNING
    description = (
        "a '# fbslint: disable' comment that suppresses no finding is "
        "reported so the suppression set cannot rot"
    )
    rationale = (
        "stale suppressions hide future regressions; the directive must "
        "die with the violation it excused"
    )
