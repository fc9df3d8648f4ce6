"""``python -m repro.resilience``: run a fault-injection campaign.

The JSON report goes to ``--out`` (or stdout); the human-readable
verdict table goes to stderr so redirecting stdout captures exactly the
byte-identical report.  Exit status is 0 when every scenario passes and
1 when any invariant is violated -- CI fails on a red campaign.

Examples::

    python -m repro.resilience --seed 0                  # full matrix
    python -m repro.resilience --smoke --out report.json # CI tier
    python -m repro.resilience --only corruption reboot  # subset
    python -m repro.resilience --list                    # scenario names
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.report import parse_cli, refuse_path, write_report
from repro.resilience.campaign import run_campaign
from repro.resilience.scenario import build_matrix

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Deterministic FBS fault-injection campaign.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the short CI tier instead of the full matrix",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only the named scenario(s)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the JSON report here instead of stdout",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list scenario names and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_cli(_build_parser(), argv)
    if isinstance(args, int):
        return args

    if args.list_scenarios:
        for scenario in build_matrix(smoke=args.smoke):
            print(f"{scenario.name}: {scenario.description}")
        return 0
    if refuse_path("--out", args.out):
        return 2

    try:
        report = run_campaign(
            seed=args.seed, smoke=args.smoke, only=args.only
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    write_report(report, args.out)

    summary = report["summary"]
    for scenario in report["scenarios"]:
        marker = "ok  " if scenario["verdict"] == "pass" else "FAIL"
        goodput = scenario["traffic"]["goodput"]
        print(
            f"[{marker}] {scenario['name']:<20} goodput={goodput:.3f}",
            file=sys.stderr,
        )
        for violation in scenario["violations"]:
            print(f"       - {violation}", file=sys.stderr)
    print(
        f"{summary['passed']}/{summary['total']} scenarios passed "
        f"(tier={report['tier']}, seed={report['seed']})",
        file=sys.stderr,
    )
    return 0 if summary["failed"] == 0 else 1
