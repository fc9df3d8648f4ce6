"""The fbslint engine: discover, read, parse, then the taint pass.

Every file is parsed once and summarized (phase 1,
:mod:`repro.analysis.callgraph`); the summaries form one project, over
which the taint fixpoint runs (phase 2, :mod:`repro.analysis.dataflow`).
A file that cannot be read or parsed is a :class:`LintError`, never a
silent skip.  The engine is a library first (``lint_source`` /
``lint_paths``) so the tests can aim the pass at fixture files; the CLI
in :mod:`repro.analysis.cli` is a thin wrapper over :func:`lint_paths`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.callgraph import ModuleSummary, Project, summarize_module
from repro.analysis.context import ModuleContext
from repro.analysis.dataflow import Finding, taint_findings

__all__ = ["LintError", "discover", "lint_paths", "lint_source"]

#: Directory names never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class LintError(Exception):
    """A file could not be analyzed (missing, unreadable or unparsable)."""


def discover(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found += [
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not _SKIP_DIRS.intersection(candidate.parts)
            ]
        elif path.suffix == ".py":
            found.append(path)
        elif not path.exists():
            raise LintError(f"no such path: {path}")
    return found


def _summarize(source: str, path: str, logical_path: str) -> ModuleSummary:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}:{exc.lineno}: syntax error: {exc.msg}") from exc
    return summarize_module(
        ModuleContext(path=path, logical_path=logical_path, tree=tree, source=source)
    )


def _run(summaries: List[ModuleSummary]) -> List[Finding]:
    findings = taint_findings(Project(summaries))
    return sorted(findings, key=lambda f: (f.path, f.line, f.column, f.message))


def lint_source(
    source: str, path: str = "<string>", logical_path: Optional[str] = None
) -> List[Finding]:
    """The findings in one module's source text.

    ``logical_path`` sets the module's dotted identity (a fixture can
    impersonate ``src/repro/core/protocol.py``); flows through helper
    chains *within* the module are still found.
    """
    return _run([_summarize(source, path, logical_path or path)])


def lint_paths(paths: Sequence[Path], root: Optional[Path] = None) -> List[Finding]:
    """The findings in every python file under ``paths``, as one project;
    report paths are relative to ``root`` (default: the cwd) when under it."""
    root = (root or Path.cwd()).resolve()
    summaries = []
    for file_path in discover(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from exc
        resolved = file_path.resolve()
        report = resolved.relative_to(root) if resolved.is_relative_to(root) else file_path
        summaries.append(_summarize(source, str(report), str(file_path)))
    return _run(summaries)
