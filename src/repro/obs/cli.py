"""``python -m repro.obs``: trace summarizer, docs checker, selftest.

Subcommands:

* ``summarize TRACE [--json]`` -- aggregate a JSONL trace and print a
  Figure 11-style per-cache report plus datapath totals.
* ``check-docs [--root DIR]`` -- run the docs-vs-code sync checks
  (OBSERVABILITY.md coverage + markdown link resolution).
* ``--selftest`` -- run the end-to-end observability selftest.

Exit codes: 0 success, 1 a check or selftest failed, 2 usage error
(argparse's convention, which this module reuses).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.obs.aggregate import TraceAggregate
from repro.obs.report import parse_cli, refuse_path

__all__ = ["main", "render_summary"]


def render_summary(aggregate: TraceAggregate, source: str) -> str:
    """Human-readable report over an aggregated trace."""
    lines: List[str] = []
    lines.append(f"trace: {source}")
    span = (
        "n/a"
        if aggregate.first_t is None
        else f"{aggregate.first_t:.3f}s .. {aggregate.last_t:.3f}s"
    )
    lines.append(f"records: {aggregate.records}   time span: {span}")
    lines.append("")

    if aggregate.caches:
        header = (
            "cache", "lookups", "hits", "miss rate",
            "cold", "capacity", "collision", "evicted",
        )
        rows = [header] + [
            tuple(str(col) for col in row) for row in aggregate.cache_rows()
        ]
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(header))
        ]
        for idx, row in enumerate(rows):
            lines.append(
                "  ".join(
                    col.ljust(widths[i]) if i == 0 else col.rjust(widths[i])
                    for i, col in enumerate(row)
                )
            )
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")

    lines.append(
        "datagrams: "
        f"{aggregate.datagrams_protected} protected, "
        f"{aggregate.datagrams_accepted} accepted, "
        f"{sum(aggregate.rejections.values())} rejected, "
        f"{aggregate.replay_drops} replay drops"
    )
    lines.append(
        "bytes: "
        f"{aggregate.bytes_protected} protected, "
        f"{aggregate.bytes_accepted} accepted"
    )
    if aggregate.rejections:
        detail = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(aggregate.rejections.items())
        )
        lines.append(f"rejections by reason: {detail}")
    kd = aggregate.key_derivations
    lines.append(
        "keying: "
        f"{aggregate.flows_started} flows started, "
        f"{kd.get('send', 0)} send / {kd.get('receive', 0)} receive "
        "key derivations, "
        f"{aggregate.crypto_state_builds} crypto-state builds"
    )
    return "\n".join(lines)


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.obs.sinks import read_jsonl

    try:
        aggregate = read_jsonl(args.trace)
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(aggregate.summary(), indent=2, sort_keys=True))
    else:
        print(render_summary(aggregate, args.trace))
    return 0


def _cmd_check_docs(args: argparse.Namespace) -> int:
    from repro.obs.doccheck import run_doc_checks

    if refuse_path("--root", args.root, directory=True):
        return 2
    problems = run_doc_checks(os.path.abspath(args.root))
    if problems:
        for problem in problems:
            print(f"check-docs: {problem}", file=sys.stderr)
        print(f"check-docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("check-docs: ok")
    return 0


def _cmd_selftest() -> int:
    from repro.obs.selftest import run_selftest

    failures = run_selftest()
    if failures:
        for failure in failures:
            print(f"selftest: FAIL: {failure}", file=sys.stderr)
        print(f"selftest: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("selftest: ok")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="FBS observability tools (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run the end-to-end observability selftest and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_sum = sub.add_parser(
        "summarize", help="aggregate a JSONL trace into a cache report"
    )
    p_sum.add_argument("trace", help="path to a JSONL trace file")
    p_sum.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    p_docs = sub.add_parser(
        "check-docs", help="verify docs enumerate all events/metrics"
    )
    p_docs.add_argument(
        "--root", default=".", help="repository root (default: cwd)"
    )

    args = parse_cli(parser, argv)
    if isinstance(args, int):
        return args
    if args.selftest:
        return _cmd_selftest()
    if args.command == "summarize":
        return _cmd_summarize(args)
    if args.command == "check-docs":
        return _cmd_check_docs(args)
    parser.print_help(sys.stderr)
    return 2
