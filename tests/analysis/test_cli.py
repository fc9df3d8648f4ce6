"""CLI contract tests: ``python -m repro.analysis`` exit codes and output."""

import io
import json
import os
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]


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
        assert "0 findings" in output

    def test_violation_exits_one(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("def f(t):\n    assert t\n")
        code, output = run_cli(str(target))
        assert code == 1
        assert "FBS004" in output

    def test_fixture_violations_exit_nonzero(self):
        # Acceptance criterion: scanning any violating fixture fails.
        for bad in sorted(FIXTURES.glob("*_bad.py")):
            code, _ = run_cli(str(bad))
            assert code == 1, f"{bad.name} should produce findings"

    def test_missing_path_exits_two(self):
        code, output = run_cli("definitely/not/a/path")
        assert code == 2
        assert "error" in output

    def test_unknown_rule_exits_two(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        code, output = run_cli("--select", "FBS999", str(target))
        assert code == 2

    def test_syntax_error_exits_two(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        code, output = run_cli(str(target))
        assert code == 2

    def test_whole_tree_is_clean(self, monkeypatch):
        # The headline acceptance criterion: the final tree lints clean.
        monkeypatch.chdir(REPO_ROOT)
        code, output = run_cli("src")
        assert code == 0, output


class TestOptions:
    def test_list_rules(self):
        code, output = run_cli("--list-rules")
        assert code == 0
        for rule_id in (
            "FBS001", "FBS002", "FBS003", "FBS004", "FBS007", "FBS009",
            "FBS010", "FBS012",
        ):
            assert rule_id in output
        assert len(output.splitlines()) == 8

    def test_ignore_silences_rule(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("def f(t):\n    assert t\n")
        code, _ = run_cli("--ignore", "FBS004", str(target))
        assert code == 0

    def test_json_format(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("def f(t):\n    assert t\n")
        code, output = run_cli("--format", "json", str(target))
        assert code == 1
        payload = json.loads(output)
        assert payload["findings"][0]["rule"] == "FBS004"
        assert payload["files_checked"] == 1

    def test_retired_options_are_usage_errors(self, tmp_path):
        # One way to accept a finding (an inline directive) and one
        # machine format (json): the retired spellings are rejected,
        # not silently ignored.
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        for retired in (
            ["--baseline", str(tmp_path / "absent")],
            ["--write-baseline"],
            ["--no-unused-suppressions"],
            ["--format", "sarif"],
        ):
            code, _ = run_cli(*retired, str(target))
            assert code == 2, retired
