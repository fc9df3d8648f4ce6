"""The multi-tenant site: one :class:`FBSGateway` and its enrolled tenants.

:func:`build_site` assembles it on either substrate, for ``python -m
repro.gateway`` and every gateway test: the gateway endpoint, N tenant
endpoints enrolled in one domain, their transports, the resolver and
the gateway.  Tenant ``i`` is ``tenant-{i:02d}`` at ``10.99.0.{100 + i}``
port ``5000 + i``; its flow ``f`` is the 5-tuple from port ``6000 + f``
to the gateway at ``10.99.0.1:9000``.  Over netsim the hosts sit at
those addresses on one segment; over UDP every transport is an
ephemeral loopback socket and the 5-tuples only classify flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.fam import DatagramAttributes
from repro.core.keying import Principal
from repro.core.policy import FiveTuplePolicy
from repro.core.protocol import FBSEndpoint
from repro.gateway.server import FBSGateway
from repro.gateway.tenants import GatewayConfig
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.netsim.network import Network
from repro.transport.base import Transport
from repro.transport.netsim import NetsimTransport
from repro.transport.runner import SUBSTRATES
from repro.transport.udp import UdpTransport

__all__ = ["GatewaySite", "build_site"]

GATEWAY_ADDRESS = "10.99.0.1"
GATEWAY_PORT = 9000
TENANT_PORT_BASE = 5000
FLOW_SPORT_BASE = 6000
TENANT_HOST_BASE = 100
#: The plan holds this many tenants (host octets 100..255) and this
#: many flows a tenant (source ports 6000..65535).
MAX_TENANT_COUNT = 256 - TENANT_HOST_BASE
MAX_FLOW_COUNT = 65536 - FLOW_SPORT_BASE


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


@dataclass
class GatewaySite:
    """Tenant ``i`` is ``principals[i]`` protecting with ``endpoints[i]``
    and sending on ``transports[i]``; ``net`` is ``None`` over UDP."""

    net: Optional[Network]
    domain: FBSDomain
    gateway: FBSGateway
    gw_principal: Principal
    principals: List[Principal]
    endpoints: List[FBSEndpoint]
    transports: List[Transport]

    def protect(self, tenant: int, body: bytes, flow: int = 0, skew: float = 0.0) -> bytes:
        """FBSSend of ``body`` by ``tenant`` on its ``flow``, stamped
        ``skew`` seconds past the tenant's clock."""
        endpoint = self.endpoints[tenant]
        attributes = DatagramAttributes(
            self.gw_principal.wire_id, _flow_tuple(tenant, flow), len(body)
        )
        return endpoint.protect_batch(
            (body,), self.gw_principal, (attributes,), stamps=(endpoint.now() + skew,)
        )[0]

    async def close(self) -> None:
        for transport in [self.gateway.transport] + self.transports:
            await transport.close()


async def build_site(
    substrate: str = "netsim",
    tenants: int = 3,
    seed: int = 0,
    config: Optional[FBSConfig] = None,
    gw_config: Optional[GatewayConfig] = None,
    tracer=None,
) -> GatewaySite:
    """Open ``substrate``, enroll the gateway and ``tenants`` tenants in
    one domain seeded ``seed``, and wire the gateway; ``tracer`` sees
    the gateway endpoint only."""
    indices = range(tenants)
    names = [f"tenant-{i:02d}" for i in indices]
    net = None
    if substrate == "netsim":
        net = Network(seed=seed)
        net.add_segment("site", "10.99.0.0")
        gw_host = net.add_host("gw", segment="site", address=GATEWAY_ADDRESS)
        gw_transport: Transport = NetsimTransport(gw_host, local_port=GATEWAY_PORT)
        transports: List[Transport] = [
            NetsimTransport(
                net.add_host(names[i], segment="site", address=_tenant_address(i)),
                local_port=TENANT_PORT_BASE + i,
                remote=(gw_host.address, GATEWAY_PORT),
            )
            for i in indices
        ]
        addresses = [(_tenant_address(i), TENANT_PORT_BASE + i) for i in indices]
    elif substrate == "udp":
        gw_transport = await UdpTransport.create()
        transports = [
            await UdpTransport.create(remote=gw_transport.local_address) for _ in indices
        ]
        addresses = [tuple(t.local_address) for t in transports]
    else:
        raise ValueError(f"unknown substrate {substrate!r}; expected one of {SUBSTRATES}")

    domain = FBSDomain(seed=seed, config=config)
    gw_principal = Principal.from_name("gateway")
    gw_endpoint = domain.make_endpoint(
        gw_principal, now=gw_transport.now, sfl_seed=1, tracer=tracer
    )
    principals = [Principal.from_name(name) for name in names]
    endpoints = [
        domain.make_endpoint(
            principals[i], mapper=FiveTuplePolicy(threshold=domain.config.threshold),
            now=transports[i].now, sfl_seed=1000 + i,
        )
        for i in indices
    ]  # fmt: skip
    directory = dict(zip(addresses, principals))
    gateway = FBSGateway(
        gw_endpoint, gw_transport, gw_config, resolver=lambda addr: directory[tuple(addr)]
    )
    return GatewaySite(net, domain, gateway, gw_principal, principals, endpoints, transports)
