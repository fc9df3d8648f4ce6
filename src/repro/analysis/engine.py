"""The fbslint engine: discover files, run both phases, filter, report.

The engine is a *two-phase whole-program analyzer*:

* **Phase 1** parses every module once, runs the syntactic rules (the
  ones with a ``check`` method: asserts, bare excepts, multiprocessing
  imports) over its AST, and distills it into a
  :class:`~repro.analysis.callgraph.ModuleSummary`.
* **Phase 2** builds a :class:`~repro.analysis.callgraph.Project` from
  the summaries and runs the key-material taint fixpoint
  (:mod:`repro.analysis.dataflow`).  Every finding has exactly one
  producer, so the two phases' outputs are concatenated, never
  reconciled.

A finding is accepted in one way: an inline ``# fbslint: disable...``
comment (:mod:`repro.analysis.suppressions`), itself policed by FBS012,
which is an ordinary member of the selected rule set.

The engine is a library first (``lint_source`` / ``lint_paths``) so the
test suite can aim individual rules at fixture files; the CLI in
:mod:`repro.analysis.cli` is a thin argparse wrapper over
:func:`lint_paths`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.base import Rule, all_rules, get_rule
from repro.analysis.callgraph import ModuleSummary, Project, summarize_module
from repro.analysis.context import ModuleContext
from repro.analysis.dataflow import run_project_passes
from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionIndex

__all__ = ["LintError", "LintResult", "lint_source", "lint_paths"]

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class LintError(Exception):
    """A file could not be analyzed (unreadable or unparsable)."""


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: Findings that fail the run (not suppressed inline).
    findings: List[Finding] = field(default_factory=list)
    #: Count silenced by inline ``# fbslint: disable`` comments.
    suppressed: int = 0
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """The CI contract: 0 clean, 1 findings."""
        return 1 if self.findings else 0


def _select_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> List[Rule]:
    rules = all_rules()
    wanted = {r.upper() for r in select or ()}
    dropped = {r.upper() for r in ignore or ()}
    unknown = (wanted | dropped) - {r.rule_id for r in rules}
    if unknown:
        raise LintError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [
        r for r in rules if (not wanted or r.rule_id in wanted) and r.rule_id not in dropped
    ]


def _parse(source: str, path: str) -> ast.Module:
    try:
        return ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}:{exc.lineno}: syntax error: {exc.msg}") from exc


@dataclass
class _FileRecord:
    """Phase-1 artifacts for one file."""

    report_path: str
    summary: ModuleSummary
    raw_findings: List[Finding]
    suppressions: SuppressionIndex


def _phase1(
    source: str,
    report_path: str,
    logical_path: str,
    rules: Sequence[Rule],
) -> _FileRecord:
    tree = _parse(source, report_path)
    ctx = ModuleContext(
        path=report_path, logical_path=logical_path, tree=tree, source=source
    )
    raw = [f for rule in rules for f in rule.check(ctx)]
    return _FileRecord(
        report_path=report_path,
        summary=summarize_module(ctx),
        raw_findings=raw,
        suppressions=SuppressionIndex(source),
    )


def _unused_suppression_findings(
    record: _FileRecord, skipped: Sequence[str]
) -> List[Finding]:
    """FBS012: the directives of one file that absorbed nothing.

    A directive naming a rule that did not run (``skipped``: registered
    but not selected) is left alone -- it is no evidence of rot.
    """
    rule = get_rule("FBS012")
    out = []
    for line, kind, rule_ids in record.suppressions.unused_directives():
        if skipped and ("all" in rule_ids or any(r in skipped for r in rule_ids)):
            continue
        out.append(
            Finding(
                rule_id=rule.rule_id,
                severity=rule.severity,
                path=record.report_path,
                line=line,
                column=1,
                message=(
                    f"unused suppression '# fbslint: {kind}="
                    f"{','.join(rule_ids)}' matches no finding; delete it "
                    "so the suppression set cannot rot"
                ),
            )
        )
    return out


def _finalize(
    records: List[_FileRecord],
    project_findings: List[Finding],
    rules: Sequence[Rule],
) -> LintResult:
    """Join syntactic + project findings; suppress, sort."""
    by_path = {r.report_path: r for r in records}
    result = LintResult(files_checked=len(records))

    def _route(finding: Finding) -> None:
        record = by_path.get(finding.path)
        if record is not None and record.suppressions.suppresses(finding):
            result.suppressed += 1
        else:
            result.findings.append(finding)

    for record in records:
        for finding in record.raw_findings:
            _route(finding)
    for finding in project_findings:
        _route(finding)

    # FBS012 goes last: only now is it known which directives matched.
    if get_rule("FBS012") in rules:
        skipped = [rule.rule_id for rule in all_rules() if rule not in rules]
        for record in records:
            for finding in _unused_suppression_findings(record, skipped):
                _route(finding)

    result.findings.sort(key=lambda f: (-int(f.severity),) + f.sort_key)
    return result


def _phase2(records: List[_FileRecord], rules: Sequence[Rule]) -> LintResult:
    project = Project([r.summary for r in records])
    project_findings = run_project_passes(
        project, {rule.rule_id for rule in rules}
    )
    return _finalize(records, project_findings, rules)


def lint_source(
    source: str,
    path: str = "<string>",
    logical_path: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Run both phases over one module's source text.

    ``logical_path`` overrides package scoping -- the fixture tests use
    it to make a file under ``tests/`` impersonate, say,
    ``src/repro/core/protocol.py``.  The interprocedural passes run
    over a single-module project, so helper-chain flows *within* the
    module are still found.  ``rules`` narrows the run (default: every
    registered rule).
    """
    active = list(rules) if rules is not None else all_rules()
    record = _phase1(source, path, logical_path or path, active)
    return _phase2([record], active)


def _read(path: Path, root: Optional[Path]) -> Tuple[str, str]:
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    report_path = path
    if root is not None:
        try:
            report_path = path.resolve().relative_to(root.resolve())
        except ValueError:
            report_path = path
    return source, str(report_path)


def discover(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.append(candidate)
        elif path.suffix == ".py":
            found.append(path)
        elif not path.exists():
            raise LintError(f"no such path: {path}")
    return found


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every python file under ``paths`` as one project."""
    rules = _select_rules(select, ignore)
    root = root or Path.cwd()

    records: List[_FileRecord] = []
    for file_path in discover(paths):
        source, report_path = _read(file_path, root)
        records.append(_phase1(source, report_path, str(file_path), rules))
    return _phase2(records, rules)
