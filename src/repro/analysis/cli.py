"""The fbslint command line: ``python -m repro.analysis [paths]``.

Prints one line per finding (its witness flow in the message) and
exits **0** when there is none, **1** when there are findings, **2**
on a usage or analysis error (a missing or unreadable path, a syntax
error in a scanned file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import LintError, lint_paths
from repro.obs.report import parse_cli

__all__ = ["main"]


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "fbslint: whole-program key taint -- no key reaches a print, "
            "log call or f-string, or an == compare."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    args = parse_cli(parser, argv)
    if isinstance(args, int):
        return args
    try:
        findings = lint_paths([Path(p) for p in args.paths])
    except LintError as exc:
        print(f"error: {exc}", file=out)
        return 2
    for finding in findings:
        print(finding.render(), file=out)
    print(f"fbslint: {len(findings)} finding{'' if len(findings) == 1 else 's'}", file=out)
    return 1 if findings else 0
