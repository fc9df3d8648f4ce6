"""``make loc``'s second column: lines counted as code.

``tools/loc.py`` is not a package module (it lives outside ``src/``), so
it is loaded from its file.  A line counts when it holds a token that is
neither a comment nor part of a module, class or function docstring.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py"
)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


@pytest.mark.parametrize(
    "text,code",
    [
        ("\n# a comment\n\nx = 1  # trailing\n", 1),
        ('"""Module.\n\nMore.\n"""\nx = 1\n', 1),
        ('class A:\n    """Doc."""\n\n    def f(self):\n        """Two\n        lines."""\n        return 1\n', 3),
        ('async def f():\n    """Doc."""\n    return 1\n', 2),
        ('def f():\n    """Only a docstring."""\n', 1),
        ('x = 1\n"""Not first, so not a docstring."""\n', 2),
        ("x = (\n    1,\n    2,\n)\n", 4),
        ('x = """a\nb\n"""\n', 3),
    ],
    ids=[
        "blank-and-comment", "module-docstring", "class-and-method-docstrings",
        "async-docstring", "docstring-only-body", "string-after-a-statement",
        "bracketed-continuation", "multi-line-string-value",
    ],
)
def test_code_lines(text, code):
    assert loc.code_lines(text) == code


def _git_repo(root, monkeypatch, files, add=()):
    """A fresh git repo at *root* holding *files*, with the paths in
    *add* ``git add``-ed, made the working directory."""
    for relative, text in files.items():
        (root / relative).parent.mkdir(parents=True, exist_ok=True)
        (root / relative).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    if add:
        subprocess.run(["git", "add", *add], cwd=root, check=True)
    monkeypatch.chdir(root)


def _rows(capsys):
    loc.main()
    return [line.split() for line in capsys.readouterr().out.splitlines()]


def test_rows_per_package_largest_first_with_the_total(tmp_path, monkeypatch, capsys):
    _git_repo(tmp_path, monkeypatch, {
        "src/repro/__init__.py": '"""Top."""\n',
        "src/repro/core/a.py": "# c\nx = 1\ny = 2\n\n",
        "src/repro/obs/b.py": "z = 3\n",
        "tools/c.py": "w = 4\n",  # outside src/repro: not counted
    })
    assert _rows(capsys) == [
        ["6", "3", "total"],
        ["4", "2", "core"],
        ["1", "0", "(top", "level)"],
        ["1", "1", "obs"],
    ]


def test_a_tracked_file_deleted_from_the_working_tree_is_not_counted(
    tmp_path, monkeypatch, capsys
):
    # `git rm`'s first half: the index still lists the file, the disk
    # does not.  An untracked module counts before it is added.
    _git_repo(tmp_path, monkeypatch, {
        "src/repro/core/kept.py": "x = 1\n",
        "src/repro/core/deleted.py": "y = 2\n",
        "src/repro/obs/unadded.py": "z = 3\n",
    }, add=["src/repro/core"])
    (tmp_path / "src/repro/core/deleted.py").unlink()
    assert _rows(capsys) == [["2", "2", "total"], ["1", "1", "core"], ["1", "1", "obs"]]
