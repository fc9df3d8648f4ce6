"""Per-module context handed to every rule.

Rules scope themselves by *logical path* -- where the module lives
inside the ``repro`` package -- not by filesystem accident: asserts are
legal in test code but nowhere else; multiprocessing in ``repro.load``
only.  (The dataflow passes scope by the same identity, carried on the
module summary.)
Tests construct a :class:`ModuleContext` with an explicit logical path
so fixture files can impersonate any module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ModuleContext"]

#: ``# fbslint: module=repro.core.protocol`` pins a file's logical
#: module identity, overriding its filesystem location.  The rule-test
#: fixtures under ``tests/analysis/fixtures/`` use it to impersonate
#: the modules their rules are scoped to.  Only a comment of its own
#: line counts: a pragma quoted in a string or inside another comment
#: (this one) does not re-home the file that mentions it.
_MODULE_PRAGMA = re.compile(
    r"^[ \t]*#\s*fbslint:\s*module\s*=\s*([\w.]+)", re.MULTILINE
)


def _module_parts(logical_path: str) -> Optional[Tuple[str, ...]]:
    """``src/repro/core/protocol.py`` -> ``("repro", "core", "protocol")``.

    Returns ``None`` when the path does not pass through a ``repro``
    package directory (scanning arbitrary files still runs the
    package-agnostic rules).
    """
    parts = logical_path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    idx = parts.index("repro")
    tail = parts[idx:]
    if tail[-1].endswith(".py"):
        tail[-1] = tail[-1][: -len(".py")]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return tuple(tail)


@dataclass
class ModuleContext:
    """Everything a rule may ask about the module under analysis."""

    #: Path used in reports (repo-relative).
    path: str
    #: Path used for package scoping; defaults to ``path``.
    logical_path: str
    tree: ast.Module
    source: str

    def __post_init__(self) -> None:
        pragma = _MODULE_PRAGMA.search(self.source)
        if pragma:
            self.module_parts: Optional[Tuple[str, ...]] = tuple(
                pragma.group(1).split(".")
            )
        else:
            self.module_parts = _module_parts(self.logical_path)

    # -- scope predicates ------------------------------------------------------

    def in_package(self, *prefix: str) -> bool:
        """Is the module inside ``repro.<prefix...>``?"""
        want = ("repro",) + prefix
        return (
            self.module_parts is not None
            and self.module_parts[: len(want)] == want
        )

    @property
    def is_test_code(self) -> bool:
        """Test modules keep their ``assert`` statements."""
        if self.module_parts is None:
            parts = self.logical_path.replace("\\", "/").split("/")
            return "tests" in parts
        return any(p in ("tests", "conftest") for p in self.module_parts)
