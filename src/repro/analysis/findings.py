"""Finding objects produced by fbslint rules.

A finding pins a rule violation to a ``file:line`` location.

Dataflow findings additionally carry ``flow``: the source-to-sink
witness path computed by :mod:`repro.analysis.dataflow`.  The flow is
embedded in the message and exported structurally in ``--format json``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["Severity", "Finding"]


class Severity(enum.IntEnum):
    """How bad a violated invariant is.

    ``ERROR`` findings break the paper's security argument (secret
    leaks, guards that vanish under ``-O``); ``WARNING`` findings break engineering
    discipline the ROADMAP relies on (no swallowed failures, process
    containment, no stale suppressions).
    Both fail the lint run -- severity only orders the report.
    """

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: Severity
    path: str
    line: int
    column: int
    message: str
    #: Interprocedural witness path (source -> ... -> sink), when the
    #: finding came from a whole-program dataflow pass.
    flow: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """Total order over findings.

        Path, line, column, rule id, then message -- so output order is
        deterministic even for multiple findings on one line.
        """
        return (self.path, self.line, self.column, self.rule_id, self.message)

    def render(self) -> str:
        """The canonical one-line report format."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> dict:
        """JSON-friendly representation (``--format json``)."""
        payload = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }
        if self.flow:
            payload["flow"] = list(self.flow)
        return payload
