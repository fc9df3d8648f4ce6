"""Schema and repeatability checks of the budget benchmark (smoke profile).

Not part of tier-1 (``testpaths`` is ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/budget/test_budget_smoke.py``
(``benchmarks/conftest.py`` imports ``repro``).
"""

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts src/ on the path, as the command line does)
from ladder import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_is_the_programs_tables():
    manifest = _manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["benchmarks/budget"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in manifest["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == list(PER_LAYER)
    assert len(manifest["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in manifest[key])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in manifest["end_to_end"]
    )


def _smoke(out: pathlib.Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["claim"] is None
    return json.loads(out.read_text())


def test_smoke_has_every_metric_and_counts_repeat(tmp_path):
    first, second = _smoke(tmp_path / "a.json"), _smoke(tmp_path / "b.json")
    assert list(first)[-1] == "claim" and first["claim"] is None
    assert list(first["workloads"]) == list(WORKLOADS)
    for name, block in first["workloads"].items():
        assert block["failed"] == 0 and block["problems"] == [], name
        assert list(block["end_to_end"]) == [m[0] for m in run.END_TO_END]
        for entry in block["end_to_end"].values():
            assert entry["unit"] and entry["value"] > 0 and entry["slices"]
        assert list(block["per_layer"]) == [m[0] for m in PER_LAYER]
        assert block["diagnostics"]["bench.samples"] > 0
    counts = [
        json.dumps({n: b["counts"] for n, b in side["workloads"].items()}, sort_keys=True)
        for side in (first, second)
    ]
    assert counts[0] == counts[1]
