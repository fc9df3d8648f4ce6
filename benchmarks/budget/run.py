"""The cost budget: one command for every end-to-end and per-layer number.

Three ways to call it::

    # the driver's contract: one workload, one run, a JSON object last
    python3 benchmarks/budget/run.py --workload gw-small-64 --seed 0 \\
        --seconds 12 --trace 0

    # the whole budget: six workloads in interleaved windows, then the
    # traced ladder of each; --smoke is the same code in under 20 s
    python3 benchmarks/budget/run.py [--seed N] [--smoke] [--out FILE]
        [--trace-out FILE]

    # parent against change: two result files, metric by metric
    python3 benchmarks/budget/run.py --agree A.json B.json

README.md in this directory defines every workload and metric.  The
program is only ever driven from outside, through public functions of
``repro.*``; all timing comes from ``repro.bench.clocks``.
"""

from __future__ import annotations

import sys
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.bench.clocks import wall_seconds  # noqa: E402

_IMPORT_START = wall_seconds()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

from ladder import PER_LAYER, run_ladder  # noqa: E402
from measure import Window, host_factor, median, percentile, quartiles, wall  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: What importing the program and the benchmark costs; part of ``setup_s``.
IMPORT_S = wall_seconds() - _IMPORT_START

#: name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("goodput_dps", "1/s", "higher", 0.20),
    ("payload_MBps", "MB/s", "higher", 0.20),
    ("latency_p50_us", "us", "lower", 0.20),
    ("latency_p90_us", "us", "lower", 0.25),
    ("cpu_us_per_datagram", "us", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
)
#: A run is WINDOWS windows of SLICES timed slices each.  Slices are short
#: because every one is bracketed by calibration spins and the host changes
#: speed within a second; windows are where the collector runs, the open
#: loop is quiesced and, in the full run, the next workload takes its turn.
WINDOWS = 24
SLICES = 4
SMOKE_WINDOWS = 8
SMOKE_SLICE_S = 0.25 / SLICES
PERCENTILE_SAMPLE = 20
SETUPS = 3


async def timed_window(workload, slice_s: float) -> List[Window]:
    """One window of a workload: SLICES timed slices, each scaled by the
    calibration spins on either side of it."""
    gc.collect()
    slices = []
    before = host_factor()
    for _ in range(SLICES):
        piece = await workload.run(seconds=slice_s)
        after = host_factor()
        piece.host = (before + after) / 2
        before = after
        slices.append(piece)
    await workload.quiesce()
    return slices


def _slice_values(slices: Sequence[Window]) -> Dict[str, List[float]]:
    """The per-slice figure of every end-to-end metric but ``setup_s``,
    each scaled to the reference host speed by its slice's factor.

    A latency percentile needs a sample: it is taken over the shortest run
    of consecutive slices that holds PERCENTILE_SAMPLE operations (one
    slice, except where an operation is a whole batch).
    """
    busy = [s for s in slices if s.delivered]
    samples: List[List[float]] = [[]]
    for piece in slices:
        samples[-1] += piece.latencies_at_reference_us
        if len(samples[-1]) >= PERCENTILE_SAMPLE:
            samples.append([])
    samples = samples[:-1] or samples
    return {
        "goodput_dps": [s.goodput_dps for s in busy],
        "payload_MBps": [s.payload_mbps for s in busy],
        "latency_p50_us": [percentile(sample, 0.50) for sample in samples],
        "latency_p90_us": [percentile(sample, 0.90) for sample in samples],
        "cpu_us_per_datagram": [s.cpu_us_per_datagram for s in busy],
    }


async def _timed_setups(cls, seed: int, times: int = SETUPS):
    """Set the workload up ``times`` times; keep the last one standing."""
    seconds = []
    for attempt in range(times):
        start = wall()
        workload = cls(seed)
        await workload.setup()
        seconds.append(wall() - start)
        if attempt < times - 1:
            await workload.teardown()
    return workload, [IMPORT_S + s for s in seconds]


def _summarise(workload, slices: Sequence[Window], setups: Sequence[float]) -> dict:
    """One workload's end-to-end block: medians over slices, gates, counts."""
    values = _slice_values(slices)
    values["setup_s"] = list(setups)
    units = {name: unit for name, unit, _better, _bound in END_TO_END}
    problems = [p for w in slices for p in w.problems] + workload.check()
    latencies = [x for w in slices for x in w.latencies_at_reference_us]
    late = [x for w in slices for x in w.late_us]
    attempted = sum(w.attempted for w in slices)
    settled = sum(w.delivered + w.rejected + w.failed for w in slices)
    cpu, elapsed = sum(w.cpu_s for w in slices), sum(w.wall_s for w in slices)
    return {
        "end_to_end": {
            name: {"value": median(series), "unit": units[name], "slices": series}
            for name, series in values.items()
        },
        "host_factors": [w.host for w in slices],
        "attempted": attempted,
        "failed": sum(w.failed for w in slices),
        "diagnostics": {
            "bench.host_factor": median([w.host for w in slices]),
            "bench.samples": len(latencies),
            "bench.latency_p99_us": percentile(latencies, 0.99),
            "bench.busy_share": cpu / elapsed if elapsed else 0.0,
            "bench.generator_late_us_p99": percentile(late, 0.99),
            "bench.shed_share": 1.0 - settled / attempted if workload.loop == "open" else 0.0,
        },
        "problems": problems,
    }


def _print_block(name: str, block: dict) -> None:
    for metric, entry in block["end_to_end"].items():
        print(f"{name:18s} {metric:22s} {entry['value']:14.4f} {entry['unit']}")
    for metric, value in block["diagnostics"].items():
        print(f"{name:18s} {metric:22s} {value:14.4f}")
    print(f"{name:18s} attempted {block['attempted']} failed {block['failed']}")


LAYER_UNITS = {metric: unit for metric, unit, _better in PER_LAYER}


def _print_layers(name: str, metrics: Dict[str, float]) -> None:
    for metric, value in metrics.items():
        print(f"{name:18s} {metric:34s} {value:14.4f} {LAYER_UNITS[metric]}")


# -- the driver's contract: one workload, one run -------------------------------------


async def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cls = WORKLOADS[name]
    if trace:
        metrics, _counts, _spans, plain, problems = await run_ladder(cls, seed)
        _print_layers(name, metrics)
        reported = {m: {"value": v, "unit": LAYER_UNITS[m]} for m, v in metrics.items()}
        attempted, failed = plain.attempted, plain.failed
    else:
        workload, setups = await _timed_setups(cls, seed)
        try:
            slices: List[Window] = []
            for _ in range(WINDOWS):
                slices += await timed_window(workload, seconds / WINDOWS / SLICES)
            block = _summarise(workload, slices, setups)
        finally:
            await workload.teardown()
        _print_block(name, block)
        reported = {
            m: {"value": e["value"], "unit": e["unit"]}
            for m, e in block["end_to_end"].items()
        }
        attempted, failed, problems = block["attempted"], block["failed"], block["problems"]
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": reported,
    }))
    return 0 if correct else 1


# -- the whole budget ---------------------------------------------------------------


async def run_all(seed: int, seconds: float, smoke: bool, trace_out=None) -> dict:
    """Six workloads as interleaved windows (w1..w6, w1..w6, ...), so a burst
    of host interference lands on all or none; then each one's ladder."""
    rounds = SMOKE_WINDOWS if smoke else WINDOWS
    slice_s = SMOKE_SLICE_S if smoke else seconds / WINDOWS / SLICES
    standing = {}
    for name, cls in WORKLOADS.items():
        standing[name] = await _timed_setups(cls, seed, 1 if smoke else SETUPS)
    windows: Dict[str, List[Window]] = {name: [] for name in WORKLOADS}
    try:
        for _ in range(rounds):
            for name, (workload, _setups) in standing.items():
                windows[name] += await timed_window(workload, slice_s)
        blocks = {
            name: _summarise(workload, windows[name], setups)
            for name, (workload, setups) in standing.items()
        }
    finally:
        for workload, _setups in standing.values():
            await workload.teardown()
    for name, cls in WORKLOADS.items():
        metrics, counts, spans, _plain, problems = await run_ladder(cls, seed, quick=smoke)
        blocks[name]["per_layer"] = metrics
        blocks[name]["counts"] = counts
        blocks[name]["problems"] += problems
        if trace_out is not None:
            spans.write(trace_out, name)
        _print_block(name, blocks[name])
        _print_layers(name, metrics)
        for problem in blocks[name]["problems"]:
            print(f"GATE FAILED: {problem}")
    return {
        "schema": 1,
        "profile": "smoke" if smoke else "full",
        "seed": seed,
        "windows": rounds,
        "slices_per_window": SLICES,
        "slice_seconds": slice_s,
        "workloads": blocks,
        "claim": None,
    }


# -- parent against change -------------------------------------------------------------


def agree(path_a: str, path_b: str) -> int:
    """Compare two result files against the bounds of BENCHMARK.json.

    A row per workload and metric: each side's median and quartiles over
    its slices, and a verdict.  ``outside``: B's median is worse than A's
    by more than the bound.  ``unresolved``: the spread between slices is
    wider than the bound, so the bound cannot be told either way (unless
    every slice of B reads better than every slice of A).
    """
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [json.loads(pathlib.Path(p).read_text())["workloads"] for p in (path_a, path_b)]
    outside = 0
    print(f"{'workload':18s} {'metric':20s} {'A q1/median/q3':>36s} {'B q1/median/q3':>36s}  verdict")
    for name in sides[0]:
        for spec in manifest["end_to_end"]:
            metric, bound, lower = spec["name"], spec["bound"], spec["better"] == "lower"
            a, b = (side[name]["end_to_end"][metric]["slices"] for side in sides)
            qa, qb = quartiles(a), quartiles(b)
            worse_by = (qb[1] - qa[1]) / qa[1] if lower else (qa[1] - qb[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            b_wins = max(b) < min(a) if lower else min(b) > max(a)
            if spread > bound and not b_wins:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "outside"
                outside += 1
            else:
                verdict = "within"
            print(
                f"{name:18s} {metric:20s} "
                f"{qa[0]:11.3f}/{qa[1]:11.3f}/{qa[2]:11.3f} "
                f"{qb[0]:11.3f}/{qb[1]:11.3f}/{qb[2]:11.3f}  {verdict} ({worse_by:+.1%} of {bound:.0%})"
            )
    return 1 if outside else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the full run's results here")
    parser.add_argument("--trace-out", help="write the ladders' spans here (JSON lines)")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.agree:
        return agree(*args.agree)
    if args.workload:
        return asyncio.run(run_one(args.workload, args.seed, args.seconds, bool(args.trace)))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            results = asyncio.run(run_all(args.seed, args.seconds, args.smoke, handle))
    else:
        results = asyncio.run(run_all(args.seed, args.seconds, args.smoke))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    failed = sum(block["failed"] for block in results["workloads"].values())
    problems = sum(len(block["problems"]) for block in results["workloads"].values())
    print(json.dumps({"profile": results["profile"], "seed": results["seed"],
                      "failed": failed, "gates_failed": problems, "claim": None}))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
