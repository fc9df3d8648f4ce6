"""Line counts per package for ``make loc``: physical lines, and lines
counted as code (no blank, comment-only or docstring lines).

Usage: ``python tools/loc.py`` from the repository root.  It counts
every ``src/repro/**.py`` file git tracks or would track (a module not
yet ``git add``-ed counts) that is in the working tree (one deleted but
not yet staged does not); prints ``lines  code  package`` rows, largest
first, with the total.
"""

import ast
import io
import os
import subprocess
import tokenize
from collections import defaultdict

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """Lines holding a token that is neither a comment nor part of a
    module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def source_files():
    """The ``src/repro`` modules git lists that exist on disk."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "src/repro/*.py"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return [path for path in listed if os.path.isfile(path)]


def main() -> None:
    counts = defaultdict(lambda: [0, 0])
    for path in source_files():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        parts = path.split("/")
        package = parts[2] if len(parts) > 3 else "(top level)"
        for key in (package, "total"):
            counts[key][0] += text.count("\n")
            counts[key][1] += code_lines(text)
    for package, (lines, code) in sorted(counts.items(), key=lambda kv: (-kv[1][0], kv[0])):
        print(f"{lines:7d}  {code:6d}  {package}")


if __name__ == "__main__":
    main()
