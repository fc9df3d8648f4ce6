"""Finding objects produced by fbslint rules.

A finding pins a rule violation to a ``file:line`` location.  Its
*fingerprint* deliberately excludes the line number so that checked-in
baseline entries survive unrelated edits above the finding; it hashes
the logical path, the rule id, and the message text instead.

Dataflow findings additionally carry ``flow``: the source-to-sink
witness path computed by :mod:`repro.analysis.dataflow`.  The flow is embedded in the message
(so fingerprints and baseline entries are flow-path aware) and exported
structurally in ``--format json``/``--format sarif``.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["Severity", "Finding"]


class Severity(enum.IntEnum):
    """How bad a violated invariant is.

    ``ERROR`` findings break the paper's security argument (secret
    leaks, wrong header layout); ``WARNING`` findings break engineering
    discipline the ROADMAP relies on (determinism, metrics, taxonomy).
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
    #: Set by the engine when a baseline entry absorbed this finding.
    baselined: bool = field(default=False, compare=False)
    #: Interprocedural witness path (source -> ... -> sink), when the
    #: finding came from a whole-program dataflow pass.
    flow: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching (line-number free)."""
        raw = f"{self.path}|{self.rule_id}|{self.message}".encode("utf-8")
        return hashlib.sha1(raw).hexdigest()[:12]

    @property
    def sort_key(self) -> Tuple[str, int, int, str, str]:
        """Total order over findings.

        Path, line, column, rule id, then message -- so output order is
        deterministic even for multiple findings on one line.
        """
        return (self.path, self.line, self.column, self.rule_id, self.message)

    def render(self) -> str:
        """The canonical one-line report format."""
        tag = " (baselined)" if self.baselined else ""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} [{self.severity}] {self.message}{tag}"
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
            "fingerprint": self.fingerprint,
            "baselined": self.baselined,
        }
        if self.flow:
            payload["flow"] = list(self.flow)
        return payload
