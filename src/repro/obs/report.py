"""The one CLI harness: every ``cli.py`` parses its arguments through
:func:`parse_cli`, and every CLI that emits a report serializes and
writes it through the byte-stable writer here (what comes out is
compared under two hash seeds by ``tests/test_report_determinism.py``)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, TextIO, Union

__all__ = ["parse_cli", "refuse_path", "render_report", "write_report"]


def parse_cli(
    parser: argparse.ArgumentParser, argv: Optional[Sequence[str]]
) -> Union[argparse.Namespace, int]:
    """``parser.parse_args(argv)`` for a ``main`` that returns its exit
    code: argparse's ``SystemExit`` comes back as the int every CLI
    documents -- 2 on a usage error, 0 after ``--help`` -- instead of
    unwinding the caller."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0


def refuse_path(flag: str, path: Optional[str], directory: bool = False) -> bool:
    """True, after one ``error: FLAG PATH: reason`` line on stderr, when
    ``path`` cannot serve: a report file that cannot be opened for
    writing, or (``directory``) a directory that cannot be listed.
    Called before any work, so the caller's exit 2 is a usage error and
    never a finished run lost to its last write.  ``None`` (stdout, or
    the default) always serves."""
    if path is None:
        return False
    try:
        if directory:
            os.listdir(path)
        else:
            with open(path, "a", encoding="utf-8"):
                pass
    except OSError as exc:
        print(f"error: {flag} {path}: {exc.strerror}", file=sys.stderr)
        return True
    return False


def render_report(report: object) -> str:
    """The canonical serialization: sorted keys, trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(
    report: object, path: Optional[str], stdout: Optional[TextIO] = None
) -> None:
    """Write the rendered ``report`` to ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(render_report(report))
    else:
        (sys.stdout if stdout is None else stdout).write(render_report(report))
