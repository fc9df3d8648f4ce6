"""Inline suppression comments.

Three forms, mirroring the linters this codebase's contributors know:

* ``# fbslint: disable=FBS001,FBS004`` -- suppress on this line;
* ``# fbslint: disable-next-line=FBS001`` -- suppress on the following
  line (for lines too long to carry a trailing comment);
* ``# fbslint: disable-file=FBS004`` -- anywhere in the file, suppress
  the rule for the whole module.

``disable=all`` suppresses every rule at that granularity.  Suppressions
are parsed from the token stream, so a violating *string* containing the
magic text does not suppress anything.

The index also remembers each *directive* (the comment itself) and
which directives actually absorbed a finding, so the engine can report
suppressions that suppress nothing (FBS012) before the suppression set
rots.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, Set, Tuple

from repro.analysis.findings import Finding

__all__ = ["SuppressionIndex"]

_DIRECTIVE = re.compile(
    r"#\s*fbslint:\s*(disable(?:-next-line|-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)


class SuppressionIndex:
    """All fbslint directives of one source file, queryable per finding."""

    def __init__(self, source: str) -> None:
        #: line number -> rule ids suppressed on that line ("all" wildcard).
        self.by_line: Dict[int, Set[str]] = {}
        self.file_wide: Set[str] = set()
        #: Every directive as written: (comment line, kind, sorted rules).
        self.directives: List[Tuple[int, str, Tuple[str, ...]]] = []
        #: Indices into ``directives`` that absorbed at least one finding.
        self.used: Set[int] = set()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            comments = []
        for line, text in comments:
            match = _DIRECTIVE.search(text)
            if not match:
                continue
            kind = match.group(1)
            rules = {
                r.strip().upper() if r.strip() != "all" else "all"
                for r in match.group(2).split(",")
                if r.strip()
            }
            if not rules:
                continue
            self.directives.append((line, kind, tuple(sorted(rules))))
            if kind == "disable-file":
                self.file_wide |= rules
            elif kind == "disable-next-line":
                self.by_line.setdefault(line + 1, set()).update(rules)
            else:
                self.by_line.setdefault(line, set()).update(rules)

    def _matching_directives(self, finding: Finding) -> List[int]:
        hits = []
        for idx, (line, kind, rules) in enumerate(self.directives):
            target = line + 1 if kind == "disable-next-line" else line
            if kind != "disable-file" and target != finding.line:
                continue
            if "all" in rules or finding.rule_id in rules:
                hits.append(idx)
        return hits

    def suppresses(self, finding: Finding) -> bool:
        """Does a directive silence this finding?  Marks the directive used."""
        hits = self._matching_directives(finding)
        if hits:
            self.used.update(hits)
            return True
        return False

    def unused_directives(self) -> List[Tuple[int, str, Tuple[str, ...]]]:
        """Directives that absorbed nothing in this run (FBS012 fodder)."""
        return [
            d for idx, d in enumerate(self.directives) if idx not in self.used
        ]
