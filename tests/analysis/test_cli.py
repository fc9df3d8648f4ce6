"""CLI contract tests: ``python -m repro.analysis`` exit codes and output."""

import io
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]

_LEAK = "def f(kdf):\n    key = kdf.flow_key(1)\n    print(key)\n"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("def f():\n    return 1\n")
        code, output = run_cli(str(target))
        assert code == 0
        assert output == "fbslint: 0 findings\n"

    def test_violation_exits_one(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(_LEAK)
        code, output = run_cli(str(target))
        assert code == 1
        line, summary = output.splitlines()
        assert line.startswith(f"{target}:3:5: FBS001 key material ('key') reaches print()")
        assert "flow_key() at" in line  # the witness flow rides in the message
        assert summary == "fbslint: 1 finding"

    def test_violating_fixture_exits_one(self):
        code, _ = run_cli(str(FIXTURES / "fbs001_bad.py"))
        assert code == 1

    def test_missing_path_exits_two(self):
        code, output = run_cli("definitely/not/a/path")
        assert code == 2
        assert "error" in output

    def test_syntax_error_exits_two(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        code, output = run_cli(str(target))
        assert code == 2
        assert output.startswith(f"error: {target}:1: syntax error")

    def test_whole_tree_is_clean(self, monkeypatch):
        # The headline acceptance criterion: the final tree lints clean.
        monkeypatch.chdir(REPO_ROOT)
        code, output = run_cli("src")
        assert code == 0, output


# The one way in is the paths: every option the rule framework had --
# and the ones it retired before -- is a usage error, not ignored.
@pytest.mark.parametrize(
    "option",
    [
        ["--select", "FBS001"],
        ["--ignore", "FBS001"],
        ["--format", "json"],
        ["--check-docs"],
        ["--write-docs"],
        ["--list-rules"],
        ["-q"],
        ["--baseline", "absent"],
        ["--write-baseline"],
        ["--no-unused-suppressions"],
    ],
    ids=lambda option: option[0],
)
def test_retired_options_are_usage_errors(tmp_path, option):
    target = tmp_path / "m.py"
    target.write_text("x = 1\n")
    code, _ = run_cli(*option, str(target))
    assert code == 2
