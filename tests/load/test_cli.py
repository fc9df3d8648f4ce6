"""``python -m repro.load`` CLI: exit codes, report shape."""

import json

from repro.load.cli import main


class TestSmoke:
    def test_smoke_report_contents(self, tmp_path):
        out = tmp_path / "load.json"
        assert main(["--smoke", "--workers", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["report_version"] == 1
        assert report["engine"]["workload"] == "smoke"
        assert report["merge_check"]["result"] == "exact"
        agg = report["aggregate"]
        assert agg["received"] == agg["accepted"] + sum(
            agg["rejected"].values()
        )
        assert agg["goodput_dps"] >= max(
            w["goodput_dps"] for w in report["workers"]
        )

    def test_report_to_stdout(self, capsys):
        assert main(["--workers", "1", "--workload", "smoke"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine"]["workers"] == 1
        assert "merge_check" not in report  # only --smoke runs the check

    def test_trace_out_writes_shard_tagged_jsonl(self, tmp_path):
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        assert main(
            [
                "--workers",
                "2",
                "--workload",
                "smoke",
                "--trace-out",
                str(trace_dir),
                "--out",
                str(tmp_path / "r.json"),
            ]
        ) == 0
        for worker in (0, 1):
            lines = (trace_dir / f"worker{worker}.jsonl").read_text().splitlines()
            assert lines
            assert all(json.loads(line)["shard"] == worker for line in lines)


class TestUsageErrors:
    def test_unknown_workload_is_a_usage_error(self):
        assert main(["--workload", "nope"]) == 2

    def test_zero_workers_is_a_usage_error(self, capsys):
        assert main(["--workers", "0"]) == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err
