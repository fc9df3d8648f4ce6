"""``python -m repro.load``: replay a seeded workload, report it.

Examples::

    # CI smoke: tiny workload, byte-stable.
    python -m repro.load --smoke --seed 0 --out /tmp/load.json

    # A synthetic run with a JSONL event trace.
    python -m repro.load --workload synthetic \\
        --trace-out /tmp/load-traces --out /tmp/load.json

The JSON report goes to ``--out`` (or stdout); a short human summary
goes to stderr.  Exit status: 0 on success, 1 when a replay invariant
fails, 2 on usage errors.  A report is a pure function of the
arguments: sorted keys, floats rounded to 6 places, and no wall-clock
value -- goodput is *simulation* goodput (accepted datagrams per
simulated second); real-time rates are the cost budget's
(``benchmarks/budget/``).  ``tests/test_report_determinism.py`` runs
the smoke under two hash seeds and compares the bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.load.worker import CACHE_SIZE, EXACT, LoadError, WorkerSpec, run_worker
from repro.obs.report import number, parse_cli, refuse_path, write_report
from repro.traces.registry import workload_names, workload_summaries

__all__ = ["REPORT_VERSION", "build_report", "main"]

#: 2: one replay -- ``totals`` and ``metrics`` replace the per-worker
#: list, ``aggregate`` and ``merged_metrics``; no ``merge_check``.
REPORT_VERSION = 2
#: The result fields a report carries as its ``totals``.
_TOTALS = (
    "datagrams", "sent", "received", "accepted", "rejected",
    "bytes_protected", "bytes_accepted", "flows", "sim_duration",
)  # fmt: skip


def _round_tree(obj):
    """Round every float in a snapshot-shaped structure (6 dp)."""
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    return obj


def build_report(spec: WorkerSpec, result: Dict[str, object]) -> Dict[str, object]:
    """Fold a finished :func:`~repro.load.worker.run_worker` into a report."""
    totals = {name: result[name] for name in _TOTALS}
    duration = result["sim_duration"]
    totals["goodput_dps"] = result["accepted"] / duration if duration else 0.0
    engine = {
        "workload": spec.workload, "seed": spec.seed, "duration": spec.duration,
        "datagrams": spec.datagrams, "secret": spec.secret, "batch": spec.batch,
        "threshold": EXACT.threshold, "cache_size": CACHE_SIZE,
    }  # fmt: skip
    return _round_tree(
        {
            "report_version": REPORT_VERSION,
            "engine": engine,
            "totals": totals,
            "metrics": result["snapshot"],
            "checks": {"ledger": "ok", "eviction_free": "ok"},
        }
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load",
        description="Replay a seeded workload through one FBS endpoint pair",
    )
    # Choices and help text both derive from the one registry in
    # repro.traces.registry: a newly registered workload shows up here
    # with no load edits.
    summaries = workload_summaries()
    parser.add_argument(
        "--workload",
        choices=workload_names(),
        default=None,
        help="seeded workload to replay (default: synthetic; smoke "
        "under --smoke): "
        + "; ".join(f"{name} = {summary}" for name, summary in summaries.items()),
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--duration",
        type=number(float),
        default=None,
        help="workload duration override, simulated seconds",
    )
    parser.add_argument(
        "--datagrams", type=number(), default=None, help="cap the workload at this many datagrams"
    )
    parser.add_argument(
        "--secret", action="store_true", help="encrypt bodies (DES-CBC) in addition to the MAC"
    )
    parser.add_argument("--batch", type=number(int, 1), default=256, help="datapath batch size")
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="write the JSONL event trace to DIR/load.jsonl "
        "(the directory is created if it does not exist)",
    )
    parser.add_argument("--out", metavar="PATH", default=None, help="report file (default: stdout)")
    parser.add_argument("--smoke", action="store_true", help="tiny workload")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_cli(_build_parser(), argv)
    if isinstance(args, int):
        return args
    if args.trace_out is not None:
        # Before the replay starts: dying on its sink is a traceback.
        try:
            os.makedirs(args.trace_out, exist_ok=True)
        except OSError as exc:
            print(f"error: --trace-out {args.trace_out}: {exc.strerror}", file=sys.stderr)
            return 2
    if refuse_path("--out", args.out):
        return 2
    spec = WorkerSpec(
        worker=0,
        workers=1,
        workload=args.workload or ("smoke" if args.smoke else "synthetic"),
        seed=args.seed,
        duration=args.duration,
        datagrams=args.datagrams,
        secret=args.secret,
        batch=args.batch,
        trace_dir=args.trace_out,
    )
    try:
        result = run_worker(spec)
    except LoadError as exc:
        print(f"load: FAIL: {exc}", file=sys.stderr)
        return 1
    report = build_report(spec, result)
    write_report(report, args.out)
    totals = report["totals"]
    print(
        f"load: workload={spec.workload} seed={spec.seed}: "
        f"{totals['datagrams']} datagrams  {totals['accepted']} accepted  "
        f"{totals['flows']} flows  {totals['goodput_dps']:.2f} dg/s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
