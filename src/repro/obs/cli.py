"""``python -m repro.obs``: trace summarizer and docs checker.

Subcommands:

* ``summarize TRACE [--json]`` -- fold a JSONL trace onto a metrics
  registry and print a Figure 11-style per-cache report plus datapath
  totals (``--json``: the registry's ``snapshot()``).
* ``check-docs [--root DIR]`` -- run the docs-vs-code sync checks
  (OBSERVABILITY.md coverage + markdown link resolution).

Exit codes: 0 success, 1 a check failed or the trace is unreadable, 2
usage error (argparse's convention, which this module reuses).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, Tuple

from repro.obs.events import REJECTION_REASONS
from repro.obs.registry import MetricsRegistry, parse_metric_key
from repro.obs.report import parse_cli, refuse_path
from repro.obs.sinks import read_records

__all__ = ["main", "render_summary"]


def render_summary(
    registry: MetricsRegistry,
    source: str,
    records: int,
    span: Optional[Tuple[float, float]],
) -> str:
    """Human-readable report over a folded trace."""
    caches = sorted({
        parse_metric_key(key)[1]["cache"]
        for key in registry.snapshot()["counters"]  # type: ignore[union-attr]
        if "{cache=" in key
    })

    def count(name: str, **labels: str) -> int:
        return registry.counter(name, **labels).value

    shown = "n/a" if span is None else f"{span[0]:.3f}s .. {span[1]:.3f}s"
    lines = [f"trace: {source}", f"records: {records}   time span: {shown}", ""]
    if caches:
        rows = [("cache", "lookups", "hits", "misses", "miss rate", "evicted")]
        for cache in caches:
            hits = count("cache_hits", cache=cache)
            misses = count("cache_misses", cache=cache)
            lookups = hits + misses
            rate = misses / lookups if lookups else 0.0
            evicted = count("cache_evictions", cache=cache)
            rows.append(
                (cache, str(lookups), str(hits), str(misses), f"{rate * 100:.3f}%", str(evicted))
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        rows.insert(1, tuple("-" * width for width in widths))
        for row in rows:
            lines.append("  ".join(
                col.ljust(width) if i == 0 else col.rjust(width)
                for i, (col, width) in enumerate(zip(row, widths))
            ))
        lines.append("")

    rejected = {r: count("datagrams_rejected", reason=r) for r in REJECTION_REASONS}
    lines.append(
        f"datagrams: {count('datagrams_sent')} protected, "
        f"{count('datagrams_accepted')} accepted, {sum(rejected.values())} rejected"
    )
    lines.append(
        f"bytes: {count('bytes_protected')} protected, "
        f"{count('bytes_accepted')} accepted"
    )
    if any(rejected.values()):
        detail = ", ".join(f"{r}={n}" for r, n in rejected.items() if n)
        lines.append(f"rejections by reason: {detail}")
    lines.append(
        f"keying: {count('flows_started')} flows started, "
        f"{count('flow_key_derivations', side='send')} send / "
        f"{count('flow_key_derivations', side='receive')} receive key derivations, "
        f"{count('crypto_state_builds')} crypto-state builds"
    )
    return "\n".join(lines)


def _cmd_summarize(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    records, span = 0, None
    try:
        for record in read_records(args.trace):
            registry.fold(record)
            records += 1
            t = record.get("t")
            if isinstance(t, (int, float)):
                span = (t, t) if span is None else (min(span[0], t), max(span[1], t))
    except (OSError, ValueError) as exc:  # unreadable, or not a trace
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(render_summary(registry, args.trace, records, span))
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="FBS observability tools (see docs/OBSERVABILITY.md)",
    )
    sub = parser.add_subparsers(dest="command")

    p_sum = sub.add_parser(
        "summarize", help="fold a JSONL trace into a cache report"
    )
    p_sum.add_argument("trace", help="path to a JSONL trace file")
    p_sum.add_argument(
        "--json", action="store_true", help="emit the folded registry snapshot as JSON"
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
    if args.command == "summarize":
        return _cmd_summarize(args)
    if args.command == "check-docs":
        return _cmd_check_docs(args)
    parser.print_help(sys.stderr)
    return 2
