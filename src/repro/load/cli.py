"""``python -m repro.load``: the scale-out load engine CLI.

Examples::

    # CI smoke: tiny workload, 2 workers, merge check on, byte-stable.
    python -m repro.load --smoke --workers 2 --seed 0 --out /tmp/load.json

    # A 4-worker synthetic run with a shard-tagged event trace.
    python -m repro.load --workers 4 --workload synthetic \\
        --trace-out /tmp/load-traces --out /tmp/load.json

The JSON report goes to ``--out`` (or stdout); a short human summary
goes to stderr.  Exit status: 0 on success, 1 when an engine invariant
or the merge check fails, 2 on usage errors.  Reports are byte-stable:
the same arguments and seed produce identical bytes on any machine
(``tests/test_report_determinism.py`` runs the smoke under two hash
seeds and compares the bytes).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.load.engine import LoadError, LoadSpec, run_load, verify_merge
from repro.load.report import build_report
from repro.obs.report import number, parse_cli, refuse_path, write_report
from repro.traces.registry import workload_names, workload_summaries
from repro.transport.hop import HOP_NAMES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.load",
        description="Sharded multi-process FBS load engine",
    )
    parser.add_argument(
        "--workers", type=number(int, 1), default=1, help="worker process count"
    )
    # Choices and help text both derive from the one registry in
    # repro.traces.registry: a newly registered workload shows up here
    # (and in WorkerSpec validation) with no load-engine edits.
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
        "--datagrams",
        type=number(),
        default=None,
        help="cap the workload at this many datagrams",
    )
    parser.add_argument(
        "--secret",
        action="store_true",
        help="encrypt bodies (DES-CBC) in addition to the MAC",
    )
    parser.add_argument(
        "--batch", type=number(int, 1), default=256, help="datapath batch size"
    )
    parser.add_argument(
        "--transport",
        choices=HOP_NAMES,
        default="direct",
        help="wire hop between protect and unprotect: in-memory "
        "hand-off, or a NetsimTransport pair over a perfect simulated "
        "segment (identical ledgers either way)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="write per-worker shard-tagged JSONL event traces here "
        "(the directory is created if it does not exist)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="report file (default: stdout)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload + merge check (N workers vs single process)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_cli(_build_parser(), argv)
    if isinstance(args, int):
        return args
    if args.trace_out is not None:
        # Before any worker starts: a worker dying on its sink is a traceback.
        try:
            os.makedirs(args.trace_out, exist_ok=True)
        except OSError as exc:
            print(
                f"error: --trace-out {args.trace_out}: {exc.strerror}",
                file=sys.stderr,
            )
            return 2
    if refuse_path("--out", args.out):
        return 2
    workload = args.workload or ("smoke" if args.smoke else "synthetic")
    spec = LoadSpec(
        workers=args.workers,
        workload=workload,
        seed=args.seed,
        duration=args.duration,
        datagrams=args.datagrams,
        secret=args.secret,
        batch=args.batch,
        trace_dir=args.trace_out,
        transport=args.transport,
    )
    try:
        run = verify_merge(spec) if args.smoke else run_load(spec)
    except LoadError as exc:
        print(f"load engine: FAIL: {exc}", file=sys.stderr)
        return 1
    report = build_report(run)
    write_report(report, args.out)
    _summarize(report, file=sys.stderr)
    return 0


def _summarize(report: dict, file) -> None:
    agg = report["aggregate"]
    print(
        f"load: {report['engine']['workers']} worker(s) "
        f"workload={report['engine']['workload']} "
        f"seed={report['engine']['seed']}",
        file=file,
    )
    for w in report["workers"]:
        print(
            f"  shard {w['worker']}: {w['datagrams']:6d} datagrams  "
            f"{w['accepted']:6d} accepted  {w['flows']:4d} flows  "
            f"{w['goodput_dps']:10.2f} dg/s",
            file=file,
        )
    print(
        f"  aggregate: {agg['datagrams']:6d} datagrams  "
        f"{agg['accepted']:6d} accepted  {agg['flows']:4d} flows  "
        f"{agg['goodput_dps']:10.2f} dg/s",
        file=file,
    )
    if "merge_check" in report:
        mc = report["merge_check"]
        print(
            f"  merge check: {mc['result']} "
            f"({mc['compared_counters']} counters, "
            f"{mc['compared_gauges']} gauges vs single process)",
            file=file,
        )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
