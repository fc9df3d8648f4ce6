"""Command-line interface to the trace substrate.

Exposes the Section 7.3 measurement workflow as a tool::

    python -m repro.traces generate --kind lan --duration 3600 -o lan.trace
    python -m repro.traces analyze lan.trace --threshold 600
    python -m repro.traces sweep lan.trace --thresholds 300,600,900,1200
    python -m repro.traces cachesim lan.trace --host 10.1.0.250 --sizes 2,8,32

Traces use the tcpdump-like text format of :mod:`repro.traces.tcpdump`,
so users can also feed in their own converted captures.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, TextIO

from repro.bench.reporting import render_cdf, render_table
from repro.netsim.addresses import IPAddress
from repro.obs.report import number, parse_cli, refuse_path, write_report
from repro.traces import tcpdump
from repro.traces.analysis import FlowAnalysis
from repro.traces.flowsim import CacheSimulator
from repro.traces.records import Trace
from repro.traces.sweep import run_sweep, sweep_spec
from repro.traces.workloads import CampusLanWorkload, WwwServerWorkload

__all__ = ["main", "build_parser"]


# A THRESHOLD or a cache size of 0 is a usage error, not a traceback
# out of the analysis.
_positive_float = number(float)
_positive_int = number(int, 1)


def _float_list(text: str) -> List[float]:
    return [_positive_float(item) for item in text.split(",")]


def _int_list(text: str) -> List[int]:
    return [_positive_int(item) for item in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.traces",
        description="Generate and analyze packet traces (FBS reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic trace")
    gen.add_argument("--kind", choices=("lan", "www"), default="lan")
    gen.add_argument("--duration", type=_positive_float, default=3600.0, help="seconds")
    gen.add_argument("--clients", type=_positive_int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default="-", help="file or - for stdout")

    ana = sub.add_parser("analyze", help="flow characteristics of a trace")
    ana.add_argument("trace", help="trace file or - for stdin")
    ana.add_argument("--threshold", type=_positive_float, default=600.0)

    sweep = sub.add_parser(
        "sweep",
        help="THRESHOLD sweep over a trace file (Figures 13/14), or -- "
        "with --workloads/--profile -- the full THRESHOLD/cache-geometry "
        "sweep harness over registry workloads (gated, byte-stable JSON)",
    )
    sweep.add_argument(
        "trace", nargs="?", default=None, help="trace file (file mode only)"
    )
    sweep.add_argument("--thresholds", type=_float_list, default="300,600,900,1200")
    sweep.add_argument(
        "--workloads",
        default=None,
        metavar="NAME[,NAME...]",
        help="harness mode: sweep these registry workloads "
        "(default in harness mode: every sweepable workload)",
    )
    sweep.add_argument(
        "--profile",
        choices=("smoke", "full"),
        default=None,
        help="harness mode grid size (enables harness mode)",
    )
    sweep.add_argument("--seed", type=int, default=0, help="harness mode seed")
    sweep.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="harness mode: write the JSON report here (default: stdout)",
    )

    cache = sub.add_parser("cachesim", help="key cache replay (Figure 11)")
    cache.add_argument("trace")
    cache.add_argument(
        "--host", required=True, type=IPAddress, help="viewpoint address"
    )
    cache.add_argument("--sizes", type=_int_list, default="2,8,32,128")
    cache.add_argument("--threshold", type=_positive_float, default=600.0)
    cache.add_argument(
        "--side", choices=("send", "receive"), default="send",
        help="TFKC (send) or RFKC (receive) viewpoint",
    )
    return parser


class _BadTrace(Exception):
    """A trace file that does not parse: a usage error, like one that
    cannot be opened."""


def _load_trace(path: str, stdin: TextIO) -> Trace:
    try:
        if path == "-":
            return tcpdump.load(stdin)
        with open(path) as handle:
            return tcpdump.load(handle)
    except ValueError as exc:
        raise _BadTrace(f"{path}: {exc}") from None


def _cmd_generate(args, out: TextIO) -> int:
    if args.output != "-" and refuse_path("--output", args.output):
        return 2
    if args.kind == "lan":
        workload = CampusLanWorkload(
            duration=args.duration, clients=args.clients, seed=args.seed
        )
    else:
        workload = WwwServerWorkload(duration=args.duration, seed=args.seed)
    trace = workload.generate()
    if args.output == "-":
        tcpdump.dump(trace, out)
    else:
        with open(args.output, "w") as handle:
            tcpdump.dump(trace, handle)
        print(
            f"wrote {len(trace)} records "
            f"({trace.total_bytes / 1e6:.1f} MB of traffic) to {args.output}",
            file=out,
        )
    return 0


def _cmd_analyze(args, out: TextIO, stdin: TextIO) -> int:
    trace = _load_trace(args.trace, stdin)
    analysis = FlowAnalysis.from_trace(trace, threshold=args.threshold)
    summary = analysis.summary()
    print(
        render_table(
            ["metric", "value"], [(k, f"{v:.6g}") for k, v in summary.items()]
        ),
        file=out,
    )
    print("", file=out)
    print(
        render_cdf(
            "flow size CDF (packets)",
            analysis.size_packets_cdf([1, 2, 5, 10, 100, 1000, 100000]),
            "pkts",
        ),
        file=out,
    )
    print("", file=out)
    print(
        render_cdf(
            "flow duration CDF (seconds)",
            analysis.duration_cdf([1.0, 10.0, 60.0, 600.0, 3600.0]),
            "s",
        ),
        file=out,
    )
    return 0


def _cmd_sweep_harness(args, out: TextIO) -> int:
    """The gated THRESHOLD/cache-geometry harness over the registry."""
    workloads = (
        tuple(args.workloads.split(",")) if args.workloads else None
    )
    try:
        spec = sweep_spec(
            profile=args.profile or "smoke", seed=args.seed, workloads=workloads
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    if refuse_path("--out", args.out):
        return 2
    report = run_sweep(spec)
    write_report(report, args.out, stdout=out)
    for gate in report["gates"]:
        verdict = "ok  " if gate["ok"] else "FAIL"
        print(
            f"  [{verdict}] {gate['gate']}[{gate['trace']}]: {gate['detail']}",
            file=sys.stderr,
        )
    if not report["ok"]:
        print("sweep: gates FAILED", file=sys.stderr)
        return 1
    print(
        f"sweep: {len(report['traces'])} trace(s), "
        f"{len(report['gates'])} gate(s) ok",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args, out: TextIO, stdin: TextIO) -> int:
    if args.workloads is not None or args.profile is not None:
        return _cmd_sweep_harness(args, out)
    if args.trace is None:
        print(
            "sweep: need a trace file, or --workloads/--profile for "
            "harness mode",
            file=sys.stderr,
        )
        return 2
    trace = _load_trace(args.trace, stdin)
    rows = []
    for threshold in args.thresholds:
        analysis = FlowAnalysis.from_trace(trace, threshold=threshold)
        series = analysis.active_flow_series()
        rows.append(
            (
                int(threshold),
                analysis.total_flows,
                analysis.repeated_flows,
                f"{series.mean:.1f}",
                series.peak,
            )
        )
    print(
        render_table(
            ["THRESHOLD (s)", "flows", "repeated", "mean active", "peak active"],
            rows,
        ),
        file=out,
    )
    return 0


def _cmd_cachesim(args, out: TextIO, stdin: TextIO) -> int:
    trace = _load_trace(args.trace, stdin)
    viewpoint = args.host
    rows = []
    for size in args.sizes:
        simulator = CacheSimulator(size, threshold=args.threshold)
        if args.side == "send":
            stats = simulator.send_side(trace, viewpoint)
        else:
            stats = simulator.receive_side(trace, viewpoint)
        rows.append(
            (
                size,
                f"{stats.miss_rate * 100:.3f}%",
                stats.cold_misses,
                stats.capacity_misses,
                stats.collision_misses,
            )
        )
    cache_name = "TFKC" if args.side == "send" else "RFKC"
    print(f"{cache_name} from {viewpoint}:", file=out)
    print(
        render_table(["size", "miss rate", "cold", "capacity", "collision"], rows),
        file=out,
    )
    return 0


def main(argv: Optional[List[str]] = None, out: TextIO = sys.stdout, stdin: TextIO = sys.stdin) -> int:
    """Entry point (also callable from tests with explicit streams)."""
    args = parse_cli(build_parser(), argv)
    if isinstance(args, int):
        return args
    try:
        if args.command == "generate":
            return _cmd_generate(args, out)
        if args.command == "analyze":
            return _cmd_analyze(args, out, stdin)
        if args.command == "sweep":
            return _cmd_sweep(args, out, stdin)
        if args.command == "cachesim":
            return _cmd_cachesim(args, out, stdin)
    except (OSError, _BadTrace) as exc:
        # A trace or output path that cannot be opened, or a trace that
        # does not parse, is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
