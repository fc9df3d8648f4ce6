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

The ``PYTHONHASHSEED=2`` side also runs under the clock-offset shim
(``tests/shim/sitecustomize.py``): every wall clock reads 10**6 s
ahead, so a clock reading that reaches a report differs too, and a
blocking call on the event loop fails (``tests/shim/loopguard.py``).
Spawned load workers inherit both.  An unseeded
generator needs no shim: it is seeded from OS entropy, so its draws
differ between any two processes.
"""

import datetime
import itertools
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SHIM = REPO_ROOT / "tests" / "shim"
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

#: A real report with one planted line, through the real ``main`` and
#: ``write_report``: the gateway report gains ``report["planted"] = EXPR``.
PLANTED = """
import sys
{imports}
from repro.gateway import cli

real = cli.run_gateway_workload

async def planted(**kwargs):
    report = await real(**kwargs)
    report["planted"] = {expr}
    return report

cli.run_gateway_workload = planted
sys.exit(cli.main(sys.argv[1:]))
"""


def run_under_both_seeds(tmp_path, args_for, shim=True):
    """Run ``python *args_for(seed)`` once per hash seed, side by side,
    the second under the shim unless ``shim`` is false; return each
    run's ``(exit status, stdout bytes)``."""
    running = []
    for seed in HASH_SEEDS:
        path = [SHIM] if shim and seed == HASH_SEEDS[1] else []
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(map(str, path + [REPO_ROOT / "src"])),
            PYTHONHASHSEED=seed,
        )
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


def planted_runs(tmp_path, expr, imports="", shim=True):
    """Both sides' exit status and stdout with ``expr`` planted."""
    script = PLANTED.format(imports=imports, expr=expr)
    return run_under_both_seeds(tmp_path, lambda seed: ["-c", script] + GATEWAY_SMOKE, shim)


def planted_reports(tmp_path, expr, imports="", shim=True):
    """Both sides' gateway report with ``expr`` planted; both exit 0."""
    results = planted_runs(tmp_path, expr, imports, shim)
    assert [status for status, _ in results] == [0, 0]
    return [json.loads(report) for _, report in results]


def test_a_set_iterated_into_a_real_report_is_caught(tmp_path):
    # The differential can fail: the planted line is what makes the two
    # runs differ, the gateway case above being the same argv without it.
    report_a, report_b = planted_reports(
        tmp_path, 'list({name for name in report["per_tenant"]})'
    )
    resident_a, resident_b = report_a.pop("planted"), report_b.pop("planted")
    assert resident_a != resident_b and sorted(resident_a) == sorted(resident_b)
    assert report_a == report_b


@pytest.mark.parametrize(
    "module, draw",
    [
        ("random", "random.random()"),
        ("random", "random.Random().random()"),
        ("numpy", "numpy.random.default_rng().random()"),
        ("numpy", "numpy.random.random(4).tolist()"),  # the legacy global generator
    ],
)
def test_an_unseeded_draw_in_a_real_report_is_caught(tmp_path, module, draw):
    # No shim needed: an unseeded generator is seeded from OS entropy.
    report_a, report_b = planted_reports(tmp_path, draw, f"import {module}", shim=False)
    assert report_a.pop("planted") != report_b.pop("planted")
    assert report_a == report_b


def test_a_wall_clock_read_in_a_real_report_is_caught_by_the_shim(tmp_path):
    day = "int(time.time() // 86400)"
    plain_a, plain_b = planted_reports(tmp_path, day, "import time", shim=False)
    assert plain_a == plain_b  # two hash seeds alone do not see it
    report_a, report_b = planted_reports(tmp_path, day, "import time")
    assert report_b.pop("planted") - report_a.pop("planted") in (11, 12)  # 10**6 s
    assert report_a == report_b


#: The wall and monotonic clocks fbslint's FBS002 banned, which the shim
#: moves: name -> (a reading, ticks a second).
SHIFTED_CLOCKS = {
    "time": ("time.time()", 1),
    "time_ns": ("time.time_ns()", 10 ** 9),
    "monotonic": ("time.monotonic()", 1),
    "monotonic_ns": ("time.monotonic_ns()", 10 ** 9),
    "perf_counter": ("time.perf_counter()", 1),
    "perf_counter_ns": ("time.perf_counter_ns()", 10 ** 9),
    "datetime.now": ("datetime.datetime.now().timestamp()", 1),
    "datetime.today": ("datetime.datetime.today().timestamp()", 1),
    "datetime.utcnow": (
        "datetime.datetime.utcnow().replace(tzinfo=datetime.timezone.utc).timestamp()", 1
    ),
}


@pytest.fixture(scope="module")
def clocks_under_the_shim():
    """name -> (reading here, reading in a shimmed process, reading here
    again); each reading is evaluated with this module's ``time`` and
    ``datetime``, which no shim touches."""
    readings = [reading for reading, _ in SHIFTED_CLOCKS.values()]
    script = "import datetime, json, sys, time\nprint(json.dumps([eval(r) for r in sys.argv[1:]]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, [SHIM, REPO_ROOT / "src"])))
    with warnings.catch_warnings():  # ``utcnow`` is deprecated from 3.12
        warnings.simplefilter("ignore", DeprecationWarning)
        before = [eval(reading) for reading in readings]
        shimmed = subprocess.run(
            [sys.executable, "-c", script] + readings,
            env=env, capture_output=True, check=True, timeout=60,
        )
        after = [eval(reading) for reading in readings]
    return dict(zip(SHIFTED_CLOCKS, zip(before, json.loads(shimmed.stdout), after)))


@pytest.mark.parametrize("clock", sorted(SHIFTED_CLOCKS))
def test_the_shim_reads_every_banned_clock_ahead(clocks_under_the_shim, clock):
    before, shimmed, after = clocks_under_the_shim[clock]
    ticks = SHIFTED_CLOCKS[clock][1]
    slack = ticks / 1000  # a millisecond: datetime rounds to microseconds
    assert before - slack <= shimmed - 10 ** 6 * ticks <= after + slack


def test_a_blocking_call_in_a_real_producer_fails_on_the_shim_side(tmp_path):
    (status_a, _), (status_b, _) = planted_runs(tmp_path, "time.sleep(0)", "import time")
    assert (status_a, status_b) == (0, 1)
