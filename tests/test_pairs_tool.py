"""``make pairs`` runs: ``tools/pairs.py`` against two stand-in trees whose
``run.py`` prints a fixed result alternates the sides, summarises each
metric and writes nothing.

The stand-ins answer at once, so the test checks the tool, not a host.
"""

import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_MANIFEST = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "goodput_dps", "better": "higher"},
        {"name": "latency_p50_us", "better": "lower"},
    ],
}
_RUN = """\
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
latency = {latency} + 10 * seed
print("noise")
if not {correct}:
    print("GATE FAILED: w: a datagram waited longer than one pool lap")
print(json.dumps({{"correct": {correct}, "metrics": {{
    "goodput_dps": {{"value": 1000.0, "unit": "1/s"}},
    "latency_p50_us": {{"value": latency, "unit": "us"}}}}}}))
sys.exit(0 if {correct} else 1)
"""


def _tree(root: Path, latency: float, correct: bool = True) -> Path:
    (root / "benchmarks" / "budget").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(_MANIFEST))
    (root / "benchmarks" / "budget" / "run.py").write_text(
        _RUN.format(latency=latency, correct=correct)
    )
    return root


def _pairs(parent: Path, change: Path):
    return subprocess.run(
        [sys.executable, str(_TOOL), "--parent", str(parent), "--change", str(change),
         "--pairs", "3", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )  # fmt: skip


def _files(*roots):
    return sorted(p for root in roots for p in root.rglob("*"))


def test_sides_alternate_and_each_metric_gets_a_row(tmp_path):
    parent = _tree(tmp_path / "parent", latency=1000.0)
    change = _tree(tmp_path / "change", latency=400.0)
    before = _files(parent, change)
    done = _pairs(parent, change)
    assert done.returncode == 0, done.stderr
    order = [line.split(": ")[0] for line in done.stdout.splitlines() if " seed " in line]
    assert order == [
        "w seed 0 parent", "w seed 0 change",
        "w seed 1 change", "w seed 1 parent",
        "w seed 2 parent", "w seed 2 change",
    ]  # fmt: skip
    rows = [line for line in done.stdout.splitlines() if line.startswith("| w ")]
    assert rows == [
        "| w | goodput_dps | 1,000 / **1,000** / 1,000 | 1,000 / **1,000** / 1,000 | x1.000 | 0/3 |",
        "| w | latency_p50_us | 1,000 / **1,010** / 1,020 | 400 / **410** / 420 | x0.406 | 3/3 |",
    ]
    assert _files(parent, change) == before


def test_a_run_that_is_not_correct_fails_the_tool(tmp_path):
    parent = _tree(tmp_path / "parent", latency=100.0)
    change = _tree(tmp_path / "change", latency=40.0, correct=False)
    done = _pairs(parent, change)
    assert done.returncode == 1
    assert "w seed 0 change: NOT CORRECT" in done.stdout


def test_a_run_that_fails_a_gate_names_its_exit_status_and_gate(tmp_path):
    parent = _tree(tmp_path / "parent", latency=100.0)
    change = _tree(tmp_path / "change", latency=40.0, correct=False)
    lines = _pairs(parent, change).stdout.splitlines()
    at = lines.index("w seed 1 change: NOT CORRECT (exit 1)")
    assert lines[at + 1] == "  GATE FAILED: w: a datagram waited longer than one pool lap"
    assert lines[at + 2] == "w seed 1 parent: correct"
