"""``python -m repro.transport``: flags, reports, exit codes."""

import json

import pytest

from repro.transport.cli import main


class TestDemoCli:
    def test_udp_demo_round_trips(self, tmp_path, capsys):
        out = tmp_path / "udp.json"
        assert main(["--demo", "udp-echo", "--datagrams", "5",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["substrate"] == "udp"
        assert report["echoed"] == 5
        summary = capsys.readouterr().err
        assert "5/5 echoed" in summary

    def test_report_to_stdout_by_default(self, capsys):
        assert main(["--demo", "netsim-echo", "--datagrams", "3"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["datagrams"] == 3
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == captured.out

    def test_bad_demo_name_is_usage_error(self, capsys):
        assert main(["--demo", "smoke-signals"]) == 2

    def test_report_keys_are_ledger_only(self, capsys):
        # No timing, no addresses, no PIDs: anything nondeterministic in
        # the report would break tests/test_report_determinism.py.
        assert main(["--demo", "netsim-echo", "--datagrams", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "workload", "substrate", "datagrams", "payload_size", "seed",
            "echoed", "exchanges_retried", "client", "server",
        }

    def test_a_body_past_one_udp_datagram_is_a_usage_error(self, capsys):
        assert main(["--payload-size", "65476"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--payload-size: must be in 0..65475" in errors[0]

    @pytest.mark.parametrize("demo", ["netsim-echo", "udp-echo"])
    def test_the_largest_body_echoes(self, demo, capsys):
        assert main(["--demo", demo, "--payload-size", "65475", "--datagrams", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["echoed"] == 2
