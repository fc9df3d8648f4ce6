"""A parsed module and its logical identity inside the ``repro`` package.

The summaries key modules by dotted name (``repro.core.protocol``), not
by filesystem accident, so call resolution works wherever the tree
sits.  A file can pin its identity with a pragma; the fixtures under
``tests/analysis/fixtures/`` use it to impersonate the modules they
plant leaks in.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["ModuleContext"]

#: ``# fbslint: module=repro.core.protocol`` pins a file's logical
#: module identity, overriding its filesystem location.  Only a comment
#: of its own line counts: a pragma quoted in a string or inside
#: another comment (this one) does not re-home the file that mentions
#: it.
_MODULE_PRAGMA = re.compile(
    r"^[ \t]*#\s*fbslint:\s*module\s*=\s*([\w.]+)", re.MULTILINE
)


def _module_parts(path: str) -> Optional[Tuple[str, ...]]:
    """``src/repro/core/protocol.py`` -> ``("repro", "core", "protocol")``,
    or ``None`` when the path does not pass through a ``repro`` package."""
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    tail = parts[parts.index("repro"):]
    tail[-1] = tail[-1].removesuffix(".py")
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return tuple(tail)


@dataclass
class ModuleContext:
    """One module under analysis."""

    #: Path used in reports (repo-relative).
    path: str
    #: Path the dotted identity derives from; defaults to ``path``.
    logical_path: str
    tree: ast.Module
    source: str
    module_parts: Optional[Tuple[str, ...]] = field(init=False)

    def __post_init__(self) -> None:
        pragma = _MODULE_PRAGMA.search(self.source)
        self.module_parts = (
            tuple(pragma.group(1).split("."))
            if pragma
            else _module_parts(self.logical_path)
        )
