"""``make loc``'s second column: lines counted as code.

``tools/loc.py`` is not a package module (it lives outside ``src/``), so
it is loaded from its file.  A line counts when it holds a token that is
neither a comment nor part of a module, class or function docstring.
"""

import importlib.util
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


def test_rows_per_package_largest_first_with_the_total(tmp_path, monkeypatch, capsys):
    files = {
        "src/repro/__init__.py": '"""Top."""\n',
        "src/repro/core/a.py": "# c\nx = 1\ny = 2\n\n",
        "src/repro/obs/b.py": "z = 3\n",
    }
    for relative, text in files.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(text)
    monkeypatch.chdir(tmp_path)
    loc.main(sorted(files))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["6", "3", "total"],
        ["4", "2", "core"],
        ["1", "0", "(top", "level)"],
        ["1", "1", "obs"],
    ]
