"""The THRESHOLD / cache-geometry sweep harness and its gates."""

import copy
import json

import pytest

from repro.traces.cli import main as traces_main
from repro.traces.sweep import (
    SweepError,
    check_gates,
    run_sweep,
    sweep_spec,
)


@pytest.fixture(scope="module")
def small_report():
    # The full smoke profile runs in tests/test_report_determinism.py;
    # these tests restrict to two workloads (the negative control + the
    # bursty heavy-tail) to stay fast while touching every gate kind.
    spec = sweep_spec(
        profile="smoke", seed=0, workloads=("onoff-bursty", "synthetic")
    )
    return run_sweep(spec)


class TestSpecValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            sweep_spec(profile="galactic")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            sweep_spec(workloads=("no-such-workload",))

    def test_unsweepable_workload_rejected(self):
        with pytest.raises(ValueError, match="no sweep viewpoint"):
            sweep_spec(workloads=("mix",))

    def test_default_grid_excludes_unsweepable(self):
        spec = sweep_spec(profile="smoke")
        assert "mix" not in spec.workloads
        assert "smoke" not in spec.workloads
        assert "synthetic" in spec.workloads


class TestReport:
    def test_all_gates_pass(self, small_report):
        assert small_report["ok"]
        assert all(gate["ok"] for gate in small_report["gates"])
        check_gates(small_report)  # must not raise

    def test_gate_kinds_present(self, small_report):
        kinds = {gate["gate"] for gate in small_report["gates"]}
        assert kinds == {
            "threshold_monotone",
            "threshold_reduces_setups",
            "threshold_uniform_control",
            "cache_miss_monotone",
            "crypto_clean_replay",
        }

    def test_bursty_trace_is_threshold_sensitive(self, small_report):
        flows = [
            row["flows"]
            for row in small_report["traces"]["onoff-bursty"]["threshold_sweep"]
        ]
        assert flows[-1] < flows[0]

    def test_uniform_control_does_not_move(self, small_report):
        flows = [
            row["flows"]
            for row in small_report["traces"]["synthetic"]["threshold_sweep"]
        ]
        assert len(set(flows)) == 1

    def test_report_is_byte_stable(self, small_report):
        again = run_sweep(
            sweep_spec(
                profile="smoke", seed=0, workloads=("onoff-bursty", "synthetic")
            )
        )
        assert json.dumps(small_report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_check_gates_raises_on_tampered_report(self, small_report):
        broken = copy.deepcopy(small_report)
        broken["gates"][0]["ok"] = False
        broken["gates"][0]["detail"] = "tampered"
        with pytest.raises(SweepError, match="tampered"):
            check_gates(broken)


class TestCliHarnessMode:
    def test_harness_mode_writes_gated_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = traces_main(
            [
                "sweep",
                "--profile",
                "smoke",
                "--workloads",
                "synthetic",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"]
        assert "[ok  ]" in capsys.readouterr().err

    def test_harness_mode_rejects_unknown_workload(self, capsys):
        code = traces_main(
            ["sweep", "--profile", "smoke", "--workloads", "bogus"]
        )
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_file_mode_without_trace_is_usage_error(self, capsys):
        assert traces_main(["sweep"]) == 2
