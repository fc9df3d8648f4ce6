"""``python -m repro.load`` CLI: exit codes, report shape."""

import json

from repro.load import worker
from repro.load.cli import main


class TestSmoke:
    def test_smoke_report_contents(self, tmp_path):
        out = tmp_path / "load.json"
        assert main(["--smoke", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["report_version"] == 2
        assert report["engine"]["workload"] == "smoke"
        totals = report["totals"]
        assert totals["received"] == totals["accepted"] + sum(totals["rejected"].values())
        assert totals["accepted"] == report["metrics"]["counters"]["datagrams_accepted"]

    def test_report_to_stdout(self, capsys):
        assert main(["--workload", "smoke"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["datagrams"] == 600

    def test_trace_out_writes_the_event_trace(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        argv = ["--workload", "smoke", "--trace-out", str(trace_dir)]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        lines = (trace_dir / "load.jsonl").read_text().splitlines()
        assert lines
        assert all("type" in json.loads(line) for line in lines)


    def test_a_failed_check_exits_one(self, monkeypatch, capsys):
        def failing(result):
            raise worker.LoadError("received 601 != accepted+rejected 600")

        monkeypatch.setattr(worker, "check_invariants", failing)
        assert main(["--smoke"]) == 1
        assert capsys.readouterr().err.startswith("load: FAIL: received 601")


class TestUsageErrors:
    def test_unknown_workload_is_a_usage_error(self):
        assert main(["--workload", "nope"]) == 2

    def test_retired_options_are_usage_errors(self, capsys):
        for argv in (["--workers", "2"], ["--transport", "netsim"]):
            assert main(argv) == 2
            assert "unrecognized arguments" in capsys.readouterr().err
