"""The one byte-stable report writer (inside fbslint's FBS011 zone):
every CLI that emits a report serializes and writes it here."""

from __future__ import annotations

import json
import sys
from typing import Optional, TextIO

__all__ = ["render_report", "write_report"]


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
