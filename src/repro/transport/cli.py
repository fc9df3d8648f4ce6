"""``python -m repro.transport``: cross-substrate echo demos.

Examples::

    # Real asyncio UDP sockets on loopback, ephemeral ports.
    python -m repro.transport --demo udp-echo --out /tmp/udp.json

    # The identical workload over the in-process simulator.
    python -m repro.transport --demo netsim-echo --out /tmp/netsim.json

Both demos run the same driver coroutine from
:mod:`repro.transport.runner`; only the substrate differs.  The JSON
report goes to ``--out`` (or stdout); a short human summary goes to
stderr.  Exit status: 0 when every datagram echoed, 1 otherwise, 2 on
usage errors.  Reports are ledger-only and byte-stable for lossless
runs: ``tests/test_report_determinism.py`` runs both demos under two
hash seeds and compares the bytes.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.obs.report import parse_cli, refuse_path, write_report
from repro.transport.runner import run_echo

__all__ = ["main"]

#: ``--demo`` choice -> runner substrate name.
DEMOS = {"netsim-echo": "netsim", "udp-echo": "udp"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport",
        description="FBS echo workload over a selectable datagram substrate",
    )
    parser.add_argument(
        "--demo",
        choices=sorted(DEMOS),
        default="netsim-echo",
        help="substrate to run the echo workload over",
    )
    parser.add_argument(
        "--datagrams", type=int, default=50, help="echo exchanges to run"
    )
    parser.add_argument(
        "--payload-size", type=int, default=64, help="payload bytes per datagram"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--timeout",
        type=float,
        default=1.0,
        help="per-receive timeout, seconds (simulated or real)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None, help="report file (default: stdout)"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_cli(_build_parser(), argv)
    if isinstance(args, int):
        return args
    if refuse_path("--out", args.out):
        return 2

    report = asyncio.run(
        run_echo(
            substrate=DEMOS[args.demo],
            datagrams=args.datagrams,
            payload_size=args.payload_size,
            seed=args.seed,
            timeout=args.timeout,
        )
    )
    write_report(report, args.out)

    ok = report["echoed"] == report["datagrams"]
    print(
        f"[transport] {args.demo}: {report['echoed']}/{report['datagrams']} "
        f"echoed, {report['exchanges_retried']} retried "
        f"({'ok' if ok else 'INCOMPLETE'})",
        file=sys.stderr,
    )
    return 0 if ok else 1
