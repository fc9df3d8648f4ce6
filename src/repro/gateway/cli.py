"""``python -m repro.gateway``: the seeded multi-tenant gateway workload.

Examples::

    # Six tenants, two flows each, over the in-process simulator.
    python -m repro.gateway --tenants 6 --flows 2 --out /tmp/gw.json

    # The identical workload over real asyncio UDP sockets.
    python -m repro.gateway --transport udp --out /tmp/gw-udp.json

The workload drives every (tenant, flow) pair in lockstep rounds:
tenant protects and sends, gateway receives, admits, queues.  The
default ``--max-tenants`` is *smaller* than ``--tenants``, so the run
continuously exercises cache-pressure-aware eviction; shrink
``--queue-depth`` (or set ``--drain-every 0``) to exercise
backpressure.

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
from typing import Dict, List, Optional, Tuple

from repro.core.deploy import FBSDomain
from repro.core.fam import DatagramAttributes
from repro.core.keying import Principal
from repro.core.policy import FiveTuplePolicy
from repro.gateway.server import FBSGateway
from repro.gateway.tenants import GatewayConfig
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.obs.report import number, parse_cli, refuse_path, write_report

__all__ = ["run_gateway_workload", "main"]

#: Valid ``--transport`` substrates, in CLI order.
SUBSTRATES = ("netsim", "udp")

#: Canonical substrate-independent addressing plan.  The 5-tuples exist
#: for classification; over netsim they also match the simulated
#: topology, over UDP they are purely logical.
GATEWAY_ADDRESS = "10.99.0.1"
GATEWAY_PORT = 9000
TENANT_PORT_BASE = 5000
FLOW_SPORT_BASE = 6000
#: Tenant ``index`` lives at ``10.99.0.{100 + index}``: the plan holds
#: this many tenants and the CLI refuses more.
TENANT_HOST_BASE = 100
MAX_TENANT_COUNT = 256 - TENANT_HOST_BASE


def _tenant_name(index: int) -> str:
    return f"tenant-{index:02d}"


def _tenant_address(index: int) -> str:
    return f"10.99.0.{TENANT_HOST_BASE + index}"


def _flow_tuple(tenant: int, flow: int) -> FiveTuple:
    return FiveTuple(
        proto=17,
        saddr=IPAddress(_tenant_address(tenant)),
        sport=FLOW_SPORT_BASE + flow,
        daddr=IPAddress(GATEWAY_ADDRESS),
        dport=GATEWAY_PORT,
    )


def _payload(tenant: int, flow: int, round_index: int, size: int) -> bytes:
    stamp = b"t%02df%02dr%04d|" % (tenant, flow, round_index)
    return stamp + bytes((tenant + flow + j) % 256 for j in range(max(0, size - len(stamp))))


async def _drive(
    gateway: FBSGateway,
    gateway_principal: Principal,
    tenant_endpoints: Dict[int, object],
    tenant_transports: Dict[int, object],
    entries: List[Tuple[int, int, FiveTuple]],
    rounds: int,
    payload_size: int,
    drain_every: int,
    serve_timeout: float,
) -> Dict[str, int]:
    """Lockstep rounds: protect + send, then serve, one datagram at a time.

    Lockstep is what makes the report deterministic on both substrates:
    over UDP every ``await`` lets the loop deliver the one in-flight
    datagram; over netsim the receive advances simulated time.
    """
    outcomes: Dict[str, int] = {}
    for round_index in range(rounds):
        for tenant, flow, five_tuple in entries:
            endpoint = tenant_endpoints[tenant]
            body = _payload(tenant, flow, round_index, payload_size)
            attributes = DatagramAttributes(
                destination_id=gateway_principal.wire_id,
                five_tuple=five_tuple,
                size=len(body),
            )
            data = endpoint.protect(body, gateway_principal, attributes=attributes)
            await tenant_transports[tenant].send(data)
            outcome = await gateway.serve_once(serve_timeout) or "idle"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if drain_every and (round_index + 1) % drain_every == 0:
            gateway.drain()
    return outcomes


def _open_netsim(seed: int, tenant_ids: List[int]):
    """Gateway + tenant transports on one simulated segment."""
    from repro.netsim.network import Network
    from repro.transport.netsim import NetsimTransport

    net = Network(seed=seed)
    net.add_segment("site", "10.99.0.0")
    gw_host = net.add_host("gw", segment="site", address=GATEWAY_ADDRESS)
    gw_transport = NetsimTransport(gw_host, local_port=GATEWAY_PORT)
    tenant_transports = {}
    resolver_map = {}
    for tenant in tenant_ids:
        host = net.add_host(
            _tenant_name(tenant), segment="site", address=_tenant_address(tenant)
        )
        tenant_transports[tenant] = NetsimTransport(
            host,
            local_port=TENANT_PORT_BASE + tenant,
            remote=(gw_host.address, GATEWAY_PORT),
        )
        resolver_map[(str(host.address), TENANT_PORT_BASE + tenant)] = tenant
    return gw_transport, tenant_transports, resolver_map


async def _open_udp(tenant_ids: List[int]):
    """Gateway + tenant transports on ephemeral loopback sockets."""
    from repro.transport.udp import UdpTransport

    gw_transport = await UdpTransport.create()
    tenant_transports = {}
    resolver_map = {}
    for tenant in tenant_ids:
        transport = await UdpTransport.create(remote=gw_transport.local_address)
        tenant_transports[tenant] = transport
        resolver_map[tuple(transport.local_address)] = tenant
    return gw_transport, tenant_transports, resolver_map


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
    """Open the substrate, enroll one domain, build the gateway, drive
    the workload; return the ledger-only report dict."""
    if substrate not in SUBSTRATES:
        raise ValueError(
            f"unknown substrate {substrate!r}; expected one of {SUBSTRATES}"
        )
    gw_config = GatewayConfig(max_tenants=max_tenants, queue_depth=queue_depth)
    entries = [
        (tenant, flow, _flow_tuple(tenant, flow))
        for tenant in range(tenants)
        for flow in range(flows)
    ]
    site_seed = seed * 1009
    tenant_ids = list(range(tenants))
    if substrate == "netsim":
        opened = _open_netsim(site_seed, tenant_ids)
    else:
        opened = await _open_udp(tenant_ids)
    gw_transport, tenant_transports, resolver_map = opened

    domain = FBSDomain(seed=site_seed)
    gw_principal = Principal.from_name("gateway")
    gw_endpoint = domain.make_endpoint(
        gw_principal, now=gw_transport.now, sfl_seed=1
    )
    principals = {t: Principal.from_name(_tenant_name(t)) for t in tenant_ids}
    tenant_endpoints = {
        t: domain.make_endpoint(
            principals[t],
            mapper=FiveTuplePolicy(threshold=domain.config.threshold),
            now=tenant_transports[t].now,
            sfl_seed=1000 + t,
        )
        for t in tenant_ids
    }
    directory = {addr: principals[t] for addr, t in resolver_map.items()}

    def resolver(addr: Tuple[str, int]) -> Principal:
        return directory[tuple(addr)]

    gateway = FBSGateway(
        gw_endpoint, gw_transport, config=gw_config, resolver=resolver
    )
    outcomes = await _drive(
        gateway,
        gw_principal,
        tenant_endpoints,
        tenant_transports,
        entries,
        rounds,
        payload_size,
        drain_every,
        serve_timeout=1.0,
    )
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
        "per_tenant": {
            tenant.name: tenant.summary() for tenant in gateway.tenants.by_name()
        },
        "registry": gw_endpoint.registry.snapshot(),
        "consistency": gateway.admission.check_registry(),
    }
    for transport in [gw_transport] + [tenant_transports[t] for t in tenant_ids]:
        await transport.close()
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="multi-tenant FBS gateway workload over a selectable substrate",
    )
    parser.add_argument(
        "--transport",
        choices=SUBSTRATES,
        default="netsim",
        help="datagram substrate to serve over",
    )
    parser.add_argument(
        "--tenants", type=number(int, 0, MAX_TENANT_COUNT), default=6, help="remote peers"
    )
    parser.add_argument(
        "--flows", type=number(), default=2, help="flows per tenant (distinct 5-tuples)"
    )
    parser.add_argument(
        "--rounds", type=number(), default=20, help="lockstep rounds (datagram per flow)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--max-tenants",
        type=number(int, 1),
        default=4,
        help="tenant table capacity (below --tenants exercises eviction)",
    )
    parser.add_argument(
        "--queue-depth",
        type=number(),
        default=64,
        help="per-tenant bounded queue, in datagrams",
    )
    parser.add_argument(
        "--payload-size", type=number(), default=64, help="payload bytes per datagram"
    )
    parser.add_argument(
        "--drain-every",
        type=number(),
        default=1,
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

    report = asyncio.run(
        run_gateway_workload(
            substrate=args.transport,
            tenants=args.tenants,
            flows=args.flows,
            rounds=args.rounds,
            seed=args.seed,
            max_tenants=args.max_tenants,
            queue_depth=args.queue_depth,
            payload_size=args.payload_size,
            drain_every=args.drain_every,
        )
    )
    write_report(report, args.out)

    outcomes = report["outcomes"]
    consistent = not report["consistency"]
    print(
        f"[gateway] {args.transport}: {outcomes.get('enqueued', 0)} enqueued, "
        f"{sum(v for k, v in outcomes.items() if k.startswith('dropped'))} dropped, "
        f"{sum(v for k, v in outcomes.items() if k.startswith('rejected'))} rejected "
        f"({'consistent' if consistent else 'LEDGER UNBALANCED'})",
        file=sys.stderr,
    )
    return 0 if consistent else 1
