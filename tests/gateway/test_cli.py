"""``python -m repro.gateway``: flags, reports, exit codes."""

import json

import pytest

from repro.gateway.cli import main

OVERLOAD = [
    "--tenants", "2", "--flows", "1", "--rounds", "8",
    "--max-tenants", "2", "--queue-depth", "3", "--drain-every", "0",
]


class TestWorkloadCli:
    def test_udp_round_trips(self, tmp_path, capsys):
        out = tmp_path / "udp.json"
        assert main([
            "--transport", "udp", "--tenants", "3", "--flows", "1",
            "--rounds", "3", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["substrate"] == "udp"
        assert report["consistency"] == []
        assert "enqueued" in capsys.readouterr().err

    def test_report_to_stdout_by_default(self, capsys):
        assert main(["--tenants", "2", "--flows", "1", "--rounds", "2"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["workload"] == "gateway"
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == captured.out

    def test_bad_substrate_is_usage_error(self, capsys):
        assert main(["--transport", "pigeon"]) == 2

    def test_default_capacity_exercises_eviction(self, capsys):
        # The default --max-tenants (4) is below the default --tenants
        # (6), so a plain run must show capacity evictions.
        assert main(["--rounds", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["admission"]["evicted"]["capacity"] > 0
        assert report["registry"]["counters"]["cache_evictions{cache=MKC}"] > 0

    def test_overload_is_bounded_and_counted(self, capsys):
        assert main(OVERLOAD) == 0
        report = json.loads(capsys.readouterr().out)
        for summary in report["per_tenant"].values():
            assert summary["queued"] <= 3
        dropped = report["admission"]["dropped"]["backpressure"]
        assert dropped == 2 * (8 - 3)


class TestOneSiteTwoSubstrates:
    @pytest.mark.parametrize("argv", [[], OVERLOAD], ids=["defaults", "overload"])
    def test_the_udp_report_is_the_netsim_report(self, argv, capsys):
        reports = []
        for substrate in ("netsim", "udp"):
            assert main(["--transport", substrate] + argv) == 0
            report = json.loads(capsys.readouterr().out)
            assert report.pop("substrate") == substrate
            reports.append(report)
        assert reports[0] == reports[1]


class TestBounds:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--flows", "59537", "--tenants", "1"], "--flows: must be in 0..59536"),
            (["--payload-size", "65476"], "--payload-size: must be in 0..65475"),
        ],
        ids=["flows-past-the-port-plan", "body-past-one-udp-datagram"],
    )
    def test_a_value_past_the_site_is_one_error_line(self, argv, error, capsys):
        assert main(argv + ["--rounds", "1"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and error in errors[0]

    @pytest.mark.parametrize("substrate", ["netsim", "udp"])
    def test_the_largest_body_is_served(self, substrate, capsys):
        assert main([
            "--transport", substrate, "--payload-size", "65475",
            "--tenants", "1", "--flows", "1", "--rounds", "2",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["outcomes"] == {"enqueued": 2}
