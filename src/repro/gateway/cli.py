"""``python -m repro.gateway``: the seeded multi-tenant gateway workload.

Examples::

    # Six tenants, two flows each, over the in-process simulator.
    python -m repro.gateway --tenants 6 --flows 2 --out /tmp/gw.json

    # The identical workload over real asyncio UDP sockets.
    python -m repro.gateway --transport udp --out /tmp/gw-udp.json

The site is :func:`repro.gateway.site.build_site`'s, as in the gateway
tests; this module drives every (tenant, flow) pair in lockstep rounds:
tenant protects and sends, gateway receives, admits, queues.  The
default ``--max-tenants`` is *smaller* than ``--tenants``, so the run
continuously exercises cache-pressure-aware eviction; shrink
``--queue-depth`` (or set ``--drain-every 0``) to exercise backpressure.
The site's address plan bounds ``--tenants`` and ``--flows``
(``MAX_TENANT_COUNT``, ``MAX_FLOW_COUNT``), one UDP datagram bounds
``--payload-size`` (``MAX_BODY_SIZE``, 65,475 B); past a bound is exit 2.

The JSON report is ledger-only and byte-stable per seed -- counts,
the admission ledger, the registry snapshot; no addresses, no timing,
no PIDs (``tests/test_report_determinism.py`` compares two runs under
different hash seeds).
Exit status: 0 when the admission ledger balances (every enqueued body
delivered, still queued, or dropped with its evicted tenant), 1
otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Dict, List, Optional

from repro.gateway.site import (
    MAX_FLOW_COUNT, MAX_TENANT_COUNT, SUBSTRATES, build_site,
)
from repro.gateway.tenants import GatewayConfig
from repro.obs.report import number, parse_cli, refuse_path, write_report
from repro.transport.base import MAX_BODY_SIZE

__all__ = ["run_gateway_workload", "main"]


def _payload(tenant: int, flow: int, round_index: int, size: int) -> bytes:
    stamp = b"t%02df%02dr%04d|" % (tenant, flow, round_index)
    return stamp + bytes((tenant + flow + j) % 256 for j in range(max(0, size - len(stamp))))


async def run_gateway_workload(
    substrate: str = "netsim",
    tenants: int = 6,
    flows: int = 2,
    rounds: int = 20,
    seed: int = 0,
    max_tenants: int = 4,
    queue_depth: int = 64,
    payload_size: int = 64,
    drain_every: int = 1,
) -> Dict[str, object]:
    """Build the site, drive the workload; return the ledger-only report dict.

    Lockstep rounds, one datagram at a time (protect + send, then
    serve), are what make the report deterministic on both substrates:
    over UDP every ``await`` lets the loop deliver the one in-flight
    datagram; over netsim the receive advances simulated time.
    """
    gw_config = GatewayConfig(max_tenants=max_tenants, queue_depth=queue_depth)
    site = await build_site(substrate, tenants, seed * 1009, gw_config=gw_config)
    gateway = site.gateway
    outcomes: Dict[str, int] = {}
    for round_index in range(rounds):
        for tenant, transport in enumerate(site.transports):
            for flow in range(flows):
                body = _payload(tenant, flow, round_index, payload_size)
                await transport.send(site.protect(tenant, body, flow))
                outcome = await gateway.serve_once(1.0) or "idle"
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if drain_every and (round_index + 1) % drain_every == 0:
            gateway.drain()
    report = {
        "workload": "gateway",
        "substrate": substrate,
        "tenants": tenants,
        "flows": flows,
        "rounds": rounds,
        "seed": seed,
        "max_tenants": max_tenants,
        "queue_depth": queue_depth,
        "drain_every": drain_every,
        "outcomes": outcomes,
        "admission": gateway.admission.ledger_dict(),
        "per_tenant": {tenant.name: tenant.summary() for tenant in gateway.tenants.by_name()},
        "registry": gateway.endpoint.registry.snapshot(),
        "consistency": gateway.admission.check_registry(),
    }
    await site.close()
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="multi-tenant FBS gateway workload over a selectable substrate",
    )
    parser.add_argument(
        "--transport", dest="substrate", choices=SUBSTRATES, default="netsim",
        help="datagram substrate to serve over",
    )
    parser.add_argument(
        "--tenants", type=number(int, 0, MAX_TENANT_COUNT), default=6, help="remote peers"
    )
    parser.add_argument(
        "--flows", type=number(int, 0, MAX_FLOW_COUNT), default=2,
        help="flows per tenant (distinct 5-tuples)",
    )
    parser.add_argument(
        "--rounds", type=number(), default=20, help="lockstep rounds (datagram per flow)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--max-tenants", type=number(int, 1), default=4,
        help="tenant table capacity (below --tenants exercises eviction)",
    )
    parser.add_argument(
        "--queue-depth", type=number(), default=64, help="per-tenant bounded queue, in datagrams"
    )
    parser.add_argument(
        "--payload-size", type=number(int, 0, MAX_BODY_SIZE), default=64,
        help="payload bytes per datagram",
    )
    parser.add_argument(
        "--drain-every", type=number(), default=1,
        help="drain queues every N rounds (0: never; exercises backpressure)",
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

    options = vars(args)
    out = options.pop("out")
    report = asyncio.run(run_gateway_workload(**options))
    write_report(report, out)

    outcomes = report["outcomes"]
    consistent = not report["consistency"]
    print(
        f"[gateway] {args.substrate}: {outcomes.get('enqueued', 0)} enqueued, "
        f"{sum(v for k, v in outcomes.items() if k.startswith('dropped'))} dropped, "
        f"{sum(v for k, v in outcomes.items() if k.startswith('rejected'))} rejected "
        f"({'consistent' if consistent else 'LEDGER UNBALANCED'})",
        file=sys.stderr,
    )
    return 0 if consistent else 1
