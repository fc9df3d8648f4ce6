"""CLI surface tests for ``python -m repro.resilience``."""

import json

import pytest

from repro.resilience.cli import main


def test_list_names_every_scenario(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("baseline", "corruption", "perfect_storm"):
        assert name in out


def test_single_scenario_report_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["--smoke", "--only", "baseline", "--seed", "0", "--out", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["tier"] == "smoke"
    assert report["summary"]["failed"] == 0
    # stdout stayed clean (the report went to the file).
    assert capsys.readouterr().out == ""


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["--only", "no_such_scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
