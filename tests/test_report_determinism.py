"""Same seed, same bytes: every report producer under two hash seeds.

A seeded run is a pure function of its seed (the paper's soft-state
claim is what makes that possible), so every report a CLI writes must
be byte-identical from run to run.  The one thing a repeat inside one
process cannot vary is the interpreter's hash seed, and a ``set``
iterated into a report is exactly what depends on it; so each producer
runs in two subprocesses under two fixed ``PYTHONHASHSEED`` values,
concurrently, and the exit status and stdout bytes must agree.  This is
the only place that property is checked (no lint rule, no run-twice
``make`` target, no in-process repeat); ``make smoke`` runs this file.
What it cannot see is a path no argv here executes.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Fixed, so a failure reproduces; set here, so an exported
#: ``PYTHONHASHSEED`` changes nothing (0 would switch randomization off).
HASH_SEEDS = ("1", "2")

GATEWAY_SMOKE = [
    "--tenants", "6", "--flows", "2", "--rounds", "6", "--max-tenants", "4",
    "--seed", "0",
]
LOAD_SMOKE = ["-m", "repro.load", "--smoke", "--workers", "2", "--seed", "0"]
#: name -> (documented exit status, interpreter arguments).
PRODUCERS = {
    "resilience": (0, ["-m", "repro.resilience", "--smoke", "--seed", "0"]),
    "load": (0, LOAD_SMOKE),
    "transport-udp": (0, ["-m", "repro.transport", "--demo", "udp-echo"]),
    "transport-netsim": (0, ["-m", "repro.transport", "--demo", "netsim-echo"]),
    "gateway": (0, ["-m", "repro.gateway"] + GATEWAY_SMOKE),
    "traces": (0, ["-m", "repro.traces", "sweep", "--profile", "smoke", "--seed", "0"]),
    # The fixtures hold deliberate violations: findings, so exit 1.
    "analysis": (1, ["-m", "repro.analysis", "--format", "json", "tests/analysis/fixtures"]),
}

#: The pattern FBS011 used to flag (``fbs011_bad.py``), planted in a
#: real report: a set's iteration order, through the real ``main`` and
#: ``write_report``.
PLANTED_LEAK = """
import sys
from repro.gateway import cli

real = cli.run_gateway_workload

async def leaky(**kwargs):
    report = await real(**kwargs)
    report["resident"] = list({name for name in report["per_tenant"]})
    return report

cli.run_gateway_workload = leaky
sys.exit(cli.main(sys.argv[1:]))
"""


def run_under_both_seeds(tmp_path, args_for):
    """Run ``python *args_for(seed)`` once per hash seed, side by side;
    return each run's ``(exit status, stdout bytes)``."""
    running = []
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED=seed)
        with open(tmp_path / f"stdout.{seed}", "wb") as stdout:
            running.append(
                subprocess.Popen(
                    [sys.executable] + args_for(seed), cwd=REPO_ROOT, env=env,
                    stdout=stdout, stderr=subprocess.PIPE,
                )
            )
    results = []
    for seed, process in zip(HASH_SEEDS, running):
        _, stderr = process.communicate(timeout=300)
        sys.stderr.write(stderr.decode(errors="replace"))  # shown if the test fails
        results.append((process.returncode, (tmp_path / f"stdout.{seed}").read_bytes()))
    return results


def first_difference(one: bytes, other: bytes) -> str:
    lines = itertools.zip_longest(one.splitlines(), other.splitlines())
    for number, (a, b) in enumerate(lines, 1):
        if a != b:
            one_seed, other_seed = HASH_SEEDS
            return f"line {number}: {a!r} under PYTHONHASHSEED={one_seed}, {b!r} under {other_seed}"
    return "identical"


def assert_same_report(results, status):
    (status_a, bytes_a), (status_b, bytes_b) = results
    assert status_a == status_b == status
    assert bytes_a, "the producer wrote no report"
    assert bytes_a == bytes_b, first_difference(bytes_a, bytes_b)


def test_the_two_hash_seeds_are_fixed_distinct_and_randomizing():
    assert len(set(HASH_SEEDS)) == 2 and all(int(seed) > 0 for seed in HASH_SEEDS)


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_report_is_byte_identical_under_two_hash_seeds(producer, tmp_path):
    status, args = PRODUCERS[producer]
    assert_same_report(run_under_both_seeds(tmp_path, lambda seed: args), status)


def test_obs_summary_of_a_load_trace_is_byte_identical(tmp_path):
    for seed in HASH_SEEDS:
        (tmp_path / seed).mkdir()
    traced = run_under_both_seeds(
        tmp_path, lambda seed: LOAD_SMOKE + ["--trace-out", str(tmp_path / seed)]
    )
    assert_same_report(traced, 0)
    summaries = run_under_both_seeds(
        tmp_path,
        lambda seed: ["-m", "repro.obs", "summarize", "--json",
                      str(tmp_path / seed / "worker0.jsonl")],
    )
    assert_same_report(summaries, 0)


def test_a_set_iterated_into_a_real_report_is_caught(tmp_path):
    # The differential can fail: the planted line is what makes the two
    # runs differ, the gateway case above being the same argv without it.
    (status_a, bytes_a), (status_b, bytes_b) = run_under_both_seeds(
        tmp_path, lambda seed: ["-c", PLANTED_LEAK] + GATEWAY_SMOKE
    )
    assert status_a == status_b == 0
    assert bytes_a != bytes_b
    report_a, report_b = json.loads(bytes_a), json.loads(bytes_b)
    resident_a, resident_b = report_a.pop("resident"), report_b.pop("resident")
    assert resident_a != resident_b and sorted(resident_a) == sorted(resident_b)
    assert report_a == report_b
