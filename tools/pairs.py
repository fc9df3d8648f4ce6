"""Parent against change, in pairs: the table a performance claim rests on.

Usage, from the repository root (``make pairs PARENT=DIR``)::

    python tools/pairs.py --parent DIR [--change DIR] [--workload W ...]
        [--pairs N] [--seconds S]

Pair ``i`` runs ``benchmarks/budget/run.py --workload W --seed i
--seconds S --trace 0`` once in each tree, one after the other; the
parent goes first at an even seed and the change at an odd one, so a
drift of the host over the session lands on both sides alike.  Give
each side a fresh copy of its commit (``git archive`` or ``git
checkout-index -a --prefix=DIR/``), not a working tree that has run
other things.  Each run's last stdout line is its JSON result; a run
that does not read ``correct`` is reported with its exit status and the
``GATE FAILED:`` lines it printed on stdout or stderr (and, when it
printed no result at all, the tail of its stderr), and makes the exit
status 1.

Per workload and end-to-end metric of ``BENCHMARK.json`` it prints a
Markdown row: both sides' quartiles and median over the pairs (as the
budget's ``measure.quartiles`` takes them), the ratio of the medians
(change / parent), and in how many pairs the change was the better
side.  It writes no file.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "budget" / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / RUN.parent)]

from measure import quartiles  # noqa: E402  (the budget's own quartiles)


def fmt(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 100 else f"{value:.4g}"


#: Lines of stderr shown for a run that printed no result.
TAIL = 8


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One budget run in ``tree``: its JSON result line, with the run's
    exit status (``exit``) and what explains a failure (``gates``): its
    ``GATE FAILED:`` lines from either stream, then its stderr's tail if
    it printed no result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    errors = done.stderr.strip().splitlines()
    gates = [line for line in lines + errors if line.startswith("GATE FAILED:")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
        gates += [line for line in errors[-TAIL:] if line not in gates]
    if done.returncode != 0:
        result["correct"] = False
    result["exit"] = done.returncode
    result["gates"] = gates
    return result


def table(workload, pairs, metrics):
    """Markdown rows of one workload: ``pairs`` is [(parent, change)]."""
    rows = []
    for name, lower in metrics:
        if not all(name in side["metrics"] for pair in pairs for side in pair):
            continue
        parent = [p["metrics"][name]["value"] for p, _c in pairs]
        change = [c["metrics"][name]["value"] for _p, c in pairs]
        qp, qc = quartiles(parent), quartiles(change)
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ratio = qc[1] / qp[1] if qp[1] else float("nan")
        rows.append(
            f"| {workload} | {name} | {fmt(qp[0])} / **{fmt(qp[1])}** / {fmt(qp[2])} "
            f"| {fmt(qc[0])} / **{fmt(qc[1])}** / {fmt(qc[2])} | x{ratio:.3f} "
            f"| {won}/{len(pairs)} |"
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's tree")
    parser.add_argument("--change", type=Path, default=ROOT, help="the change's tree")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    manifest = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    metrics = [(m["name"], m["better"] == "lower") for m in manifest["end_to_end"]]
    trees = {"parent": args.parent, "change": args.change}
    failed = 0
    rows = []
    for workload in workloads:
        pairs = []
        for seed in range(args.pairs):
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run(trees[side], workload, seed, args.seconds)
                result = got[side]
                if result["correct"]:
                    print(f"{workload} seed {seed} {side}: correct", flush=True)
                else:
                    verdict = f"NOT CORRECT (exit {result['exit']})"
                    print(f"{workload} seed {seed} {side}: {verdict}", flush=True)
                    for gate in result["gates"]:
                        print(f"  {gate}", flush=True)
                    failed += 1
            pairs.append((got["parent"], got["change"]))
        rows += table(workload, pairs, metrics)
    print()
    print("| workload | metric | parent q1 / median / q3 | change q1 / median / q3 "
          "| change / parent | change better |")  # fmt: skip
    print("|---|---|---|---|---|---|")
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
