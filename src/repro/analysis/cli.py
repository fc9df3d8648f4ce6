"""The fbslint command line: ``python -m repro.analysis [paths]``.

Exit-code contract (relied on by CI and ``make lint``):

* **0** -- no findings (inline-suppressed ones excluded);
* **1** -- at least one finding;
* **2** -- usage or analysis error (unknown rule, unreadable path,
  syntax error in a scanned file, docs out of sync).

Beyond the report itself: ``--format json``; ``--select``/``--ignore``
(FBS012, the unused-suppression check, is selected like any other
rule); ``--check-docs``/``--write-docs`` for the DESIGN.md invariants
table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.base import all_rules
from repro.analysis.engine import LintError, lint_paths
from repro.obs.report import parse_cli

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "fbslint: whole-program dataflow checks for the FBS security "
            "invariants (key secrecy, determinism, error discipline)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--check-docs",
        action="store_true",
        help=(
            "verify the DESIGN.md enforced-invariants table matches the "
            "rule registry, then exit (0 in sync, 2 drifted)"
        ),
    )
    parser.add_argument(
        "--write-docs",
        action="store_true",
        help="regenerate the DESIGN.md enforced-invariants table, then exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule with its severity and description, then exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="print findings only, no summary line",
    )
    return parser


def _list_rules(out) -> None:
    for rule in all_rules():
        print(
            f"{rule.rule_id}  {rule.name:<24} [{rule.severity}] "
            f"{rule.description}",
            file=out,
        )


def _split(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = parse_cli(_build_parser(), argv)
    if isinstance(args, int):
        return args

    if args.list_rules:
        _list_rules(out)
        return 0

    if args.check_docs or args.write_docs:
        from repro.analysis.docsync import check_docs, write_docs

        design = Path("DESIGN.md")
        if args.write_docs:
            try:
                changed = write_docs(design)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=out)
                return 2
            print(
                f"{design}: table {'regenerated' if changed else 'already in sync'}",
                file=out,
            )
            return 0
        problems = check_docs(design)
        for problem in problems:
            print(f"error: {problem}", file=out)
        if not problems:
            print(f"{design}: enforced-invariants table in sync", file=out)
        return 2 if problems else 0

    try:
        result = lint_paths(
            [Path(p) for p in args.paths],
            root=Path.cwd(),
            select=_split(args.select),
            ignore=_split(args.ignore),
        )
    except LintError as exc:
        print(f"error: {exc}", file=out)
        return 2

    if args.format == "json":
        json.dump(
            {
                "findings": [f.as_dict() for f in result.findings],
                "suppressed": result.suppressed,
                "files_checked": result.files_checked,
            },
            out,
            indent=2,
            sort_keys=True,
        )
        print(file=out)
    else:
        for finding in result.findings:
            print(finding.render(), file=out)
        if not args.quiet:
            summary = (
                f"fbslint: {len(result.findings)} finding"
                f"{'' if len(result.findings) == 1 else 's'} in "
                f"{result.files_checked} files"
            )
            if result.suppressed:
                summary += f" ({result.suppressed} suppressed inline)"
            print(summary, file=out)

    return result.exit_code
