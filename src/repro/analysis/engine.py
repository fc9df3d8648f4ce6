"""The fbslint engine: discover files, run both phases, filter, report.

The engine is a *two-phase whole-program analyzer*:

* **Phase 1** parses every module once, runs the syntactic rules (the
  ones with a ``check`` method: asserts, bare excepts, header layout,
  multiprocessing imports) over its AST, and distills it into a
  :class:`~repro.analysis.callgraph.ModuleSummary`.
* **Phase 2** builds a :class:`~repro.analysis.callgraph.Project` from
  the summaries and runs the dataflow passes
  (:mod:`repro.analysis.dataflow`): key-material taint, exception-flow
  accounting, wall-clock and randomness impurity, async-blocking, and
  report-order determinism.  Every finding has exactly one producer,
  so the two phases' outputs are concatenated, never reconciled.

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
from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import ModuleSummary, Project, summarize_module
from repro.analysis.context import ModuleContext
from repro.analysis.dataflow import run_project_passes
from repro.analysis.findings import Finding
from repro.analysis.suppressions import SuppressionIndex

__all__ = ["LintError", "LintResult", "lint_source", "lint_file", "lint_paths"]

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class LintError(Exception):
    """A file could not be analyzed (unreadable or unparsable)."""


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: Findings that fail the run (not suppressed, not baselined).
    findings: List[Finding] = field(default_factory=list)
    #: Findings absorbed by the baseline file.
    baselined: List[Finding] = field(default_factory=list)
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
    if select:
        wanted = {r.upper() for r in select}
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            raise LintError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.rule_id in wanted]
    if ignore:
        dropped = {r.upper() for r in ignore}
        rules = [r for r in rules if r.rule_id not in dropped]
    return rules


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


def _unused_suppression_findings(record: _FileRecord) -> List[Finding]:
    rule = get_rule("FBS012")
    out = []
    for line, kind, rule_ids in record.suppressions.unused_directives():
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
    baseline: Optional[Baseline],
    unused_suppressions: bool,
) -> LintResult:
    """Join syntactic + project findings; suppress, baseline, sort."""
    by_path = {r.report_path: r for r in records}
    result = LintResult(files_checked=len(records))

    def _route(finding: Finding) -> None:
        record = by_path.get(finding.path)
        if record is not None and record.suppressions.suppresses(finding):
            result.suppressed += 1
        elif baseline is not None and baseline.absorbs(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)

    for record in records:
        for finding in record.raw_findings:
            _route(finding)
    for finding in project_findings:
        _route(finding)

    if unused_suppressions:
        for record in records:
            for finding in _unused_suppression_findings(record):
                _route(finding)

    result.findings.sort(key=lambda f: (-int(f.severity),) + f.sort_key)
    result.baselined.sort(key=lambda f: f.sort_key)
    return result


def lint_source(
    source: str,
    path: str = "<string>",
    logical_path: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    unused_suppressions: bool = True,
) -> LintResult:
    """Run both phases over one module's source text.

    ``logical_path`` overrides package scoping -- the fixture tests use
    it to make a file under ``tests/`` impersonate, say,
    ``src/repro/core/protocol.py``.  The interprocedural passes run
    over a single-module project, so helper-chain flows *within* the
    module are still found.  Unused-suppression findings (FBS012) are
    emitted only when the full rule set ran (an explicit ``rules``
    narrowing would make every directive for an unselected rule look
    unused).
    """
    narrowed = rules is not None
    active = list(rules) if rules is not None else all_rules()
    record = _phase1(source, path, logical_path or path, active)
    project = Project([record.summary])
    project_findings = run_project_passes(
        project, {rule.rule_id for rule in active}
    )
    return _finalize(
        [record],
        project_findings,
        baseline,
        unused_suppressions=unused_suppressions and not narrowed,
    )


def lint_file(
    path: Path,
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    logical_path: Optional[str] = None,
) -> LintResult:
    """Lint one file; paths in findings are relative to ``root``."""
    source, report_path = _read(path, root)
    return lint_source(
        source,
        path=report_path,
        logical_path=logical_path or str(path),
        rules=rules,
        baseline=baseline,
    )


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
    baseline: Optional[Baseline] = None,
    unused_suppressions: bool = True,
) -> LintResult:
    """Lint every python file under ``paths`` as one project."""
    rules = _select_rules(select, ignore)
    narrowed = select is not None or ignore is not None
    root = root or Path.cwd()

    records: List[_FileRecord] = []
    for file_path in discover(paths):
        source, report_path = _read(file_path, root)
        records.append(_phase1(source, report_path, str(file_path), rules))

    project = Project([r.summary for r in records])
    project_findings = run_project_passes(
        project, {rule.rule_id for rule in rules}
    )
    return _finalize(
        records,
        project_findings,
        baseline,
        unused_suppressions=unused_suppressions and not narrowed,
    )
