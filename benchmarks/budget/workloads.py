"""The six workloads of the cost budget, their inputs and their gates.

Each workload builds its system from the public functions of
``repro.*`` only, makes every input from its seed, runs one loop either
for a stretch of wall time (a timed window) or for a fixed number of
operations (the traced ladder), and checks every output it gets back.
README.md in this directory says why each of the six exists.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.fam import DatagramAttributes, FlowAssociationMechanism
from repro.core.flows import UnboundedFlowTable
from repro.core.keying import Principal
from repro.core.policy import FiveTuplePolicy
from repro.core.protocol import FBSEndpoint
from repro.crypto.des import DES
from repro.crypto.dh import WELL_KNOWN_GROUPS
from repro.gateway.server import FBSGateway
from repro.gateway.tenants import GatewayConfig
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.netsim.network import Network
from repro.obs.registry import MetricsRegistry
from repro.traces.registry import build_workload
from repro.transport.base import Transport
from repro.transport.hop import DirectHop
from repro.transport.netsim import NetsimTransport
from repro.transport.runner import build_netsim_channels, build_udp_channels
from repro.transport.udp import UdpTransport, UdpTransportConfig

from measure import Spans, Window, cpu_seconds, wall

__all__ = ["WORKLOADS", "Workload", "GatewaySite", "OAKLEY2"]

#: The paper-era 1024-bit group: a first contact costs its real modexp.
OAKLEY2 = WELL_KNOWN_GROUPS["OAKLEY2"]

#: Receive timeout of the closed loops; never reached on a lossless path.
TIMEOUT = 1.0
GATEWAY_ADDRESS = "10.66.0.1"
GATEWAY_PORT = 9000
FOREVER = float("inf")


def _cold_work(endpoints: Sequence[FBSEndpoint]) -> Tuple[int, int, int]:
    """Per-flow work done so far: key derivations, state builds, DES
    schedules.  A warm workload must not move it inside a window."""
    derivations = builds = 0
    for endpoint in endpoints:
        derivations += endpoint.registry.sum_counter("flow_key_derivations")
        builds += endpoint.registry.counter("crypto_state_builds").value
    return derivations, builds, DES.schedule_builds


class Workload:
    """One workload: set up once, then run windows or fixed counts."""

    name = ""
    why = ""
    #: Warm workloads are gated on doing no per-flow work while timed.
    warm = True
    #: "closed": the next operation waits for this one; "open": a schedule.
    loop = "closed"
    #: Whether bodies are encrypted as well as authenticated.
    secret = False
    #: Datagrams one operation carries (an exchange 2, a batch 64).
    per_operation = 1
    default_substrate = "udp"

    def __init__(self, seed: int, substrate: Optional[str] = None, tracer=None):
        self.seed = seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.substrate = substrate or self.default_substrate
        self.tracer = tracer
        self.cursor = 0

    async def setup(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        pass

    def endpoints(self) -> List[FBSEndpoint]:
        raise NotImplementedError

    async def _loop(self, win: Window, end: float, ops: int, spans) -> None:
        raise NotImplementedError

    async def quiesce(self) -> None:
        """Leave nothing in flight (the open loop discards its queues), so
        that the next thing to run starts from an idle system."""

    async def run(
        self,
        seconds: Optional[float] = None,
        ops: Optional[int] = None,
        spans: Optional[Spans] = None,
    ) -> Window:
        """One timed slice (``seconds``) or one fixed-count run (``ops``)."""
        win = Window()
        before = _cold_work(self.endpoints()) if self.warm else None
        cpu0 = cpu_seconds()
        start = wall()
        end = start + seconds if seconds is not None else FOREVER
        await self._loop(win, end, ops if ops is not None else 1 << 60, spans)
        win.wall_s = wall() - start
        win.cpu_s = cpu_seconds() - cpu0
        if self.warm and _cold_work(self.endpoints()) != before:
            win.problems.append(
                f"{self.name}: per-flow work while timed, "
                f"{before} -> {_cold_work(self.endpoints())}"
            )
        return win

    def check(self) -> List[str]:
        """Ledger gates after the workload has run (empty = all hold)."""
        return []

    def sample_bodies(self) -> List[bytes]:
        """Bodies of this workload, for the lower rungs of its ladder."""
        return self.bodies[:64]

    def counts(self) -> Dict[str, int]:
        """Registry counters of every endpoint, for the counts section."""
        out: Dict[str, int] = {}
        for index, endpoint in enumerate(self.endpoints()):
            for key, value in endpoint.registry.snapshot()["counters"].items():
                out[f"ep{index}.{key}"] = value
        return out


# -- echo over a SecureChannel pair ------------------------------------------


class Echo(Workload):
    """Closed-loop echo through a :class:`SecureChannel` pair, one warm flow."""

    size = 1024
    per_operation = 2

    async def setup(self) -> None:
        if self.substrate == "udp":
            self.client, self.server = await build_udp_channels(seed=self.seed)
        else:
            self.client, self.server = build_netsim_channels(seed=self.seed)
        self.client.secret = self.server.secret = self.secret
        self.bodies = [self.rng.randbytes(self.size) for _ in range(256)]
        self.exchanges = 0
        warm = Window()
        await self._loop(warm, FOREVER, 8, None)
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up exchange failed")

    async def teardown(self) -> None:
        await self.client.close()
        await self.server.close()

    def endpoints(self) -> List[FBSEndpoint]:
        return [self.client.endpoint, self.server.endpoint]

    async def _loop(self, win: Window, end: float, ops: int, spans) -> None:
        client, server, bodies = self.client, self.server, self.bodies
        start = wall()
        while win.attempted < ops:
            body = bodies[self.cursor % len(bodies)]
            self.cursor += 1
            op = self.cursor
            reply = None
            if spans is None:
                await client.send(body)
                request = await server.recv(TIMEOUT)
                if request is not None:
                    await server.send(request)
                    reply = await client.recv(TIMEOUT)
            else:
                await client.send(body)
                t = spans.span("channel.send", start, "echo.exchange", op)
                request = await server.recv(TIMEOUT)
                t = spans.span("channel.recv", t, "echo.exchange", op)
                if request is not None:
                    await server.send(request)
                    t = spans.span("channel.send", t, "echo.exchange", op)
                    reply = await client.recv(TIMEOUT)
                    spans.span("channel.recv", t, "echo.exchange", op)
            now = wall()
            if spans is not None:
                spans.rows.append(("echo.exchange", start, now, None, op))
            win.latencies_us.append((now - start) * 1e6)
            start = now
            win.attempted += 1
            self.exchanges += 1
            if request == body and reply == body:
                win.delivered += 2
                win.payload_bytes += 2 * len(body)
            else:
                win.failed += 1
            if now >= end:
                break

    def check(self) -> List[str]:
        problems = []
        client, server = self.client.ledger_dict(), self.server.ledger_dict()
        for label, ledger in (("client", client), ("server", server)):
            if ledger["sent"] != self.exchanges or ledger["accepted"] != self.exchanges:
                problems.append(
                    f"{self.name}: {label} ledger sent {ledger['sent']} accepted "
                    f"{ledger['accepted']}, expected {self.exchanges} each"
                )
            if any(ledger["rejected"].values()):
                problems.append(f"{self.name}: {label} rejected {ledger['rejected']}")
            stats = ledger["transport"]
            if stats["queue_drops"] or stats["transport_errors"]:
                problems.append(f"{self.name}: {label} transport {stats}")
        if client["transport"]["datagrams_sent"] != server["transport"]["datagrams_received"]:
            problems.append(f"{self.name}: datagrams lost between the sockets")
        return problems


class EchoMac1k(Echo):
    name = "echo-mac-1k"
    why = (
        "warm 1 KB MAC-only round trip over loopback UDP: scalar keyed-MD5 "
        "and FBSEndpoint n=1 do the work, keying and gateway none"
    )


class EchoSecret512(Echo):
    name = "echo-secret-512"
    why = (
        "warm 512 B DES-CBC+MAC round trip: the scalar cipher beside the MAC, "
        "so a MAC gain that costs the cipher path shows here only"
    )
    size = 512
    secret = True


# -- the gateway site shared by the three gateway workloads -----------------------


class TapTransport(Transport):
    """Notes which datagram the gateway was handed, so the open loop can
    check each outcome against the class the generator gave that datagram."""

    name = "tap"

    def __init__(self, inner: Transport) -> None:
        super().__init__()
        self.inner = inner
        self.stats = inner.stats
        self.last: Optional[bytes] = None
        self.handed = 0

    def now(self) -> float:
        return self.inner.now()

    async def recv_from(self, timeout: Optional[float] = None):
        arrival = await self.inner.recv_from(timeout)
        if arrival is not None:
            self.last = arrival[0]
            self.handed += 1
        return arrival


class GatewaySite:
    """One :class:`FBSGateway` and its enrolled tenants on one substrate."""

    def __init__(self) -> None:
        self.gateway: FBSGateway
        self.principal = Principal.from_name("gateway")
        self.gw_transport: Transport
        self.transports: List[Transport] = []
        self.endpoints: List[FBSEndpoint] = []
        self.principals: List[Principal] = []
        self.addresses: List[Tuple[str, int]] = []

    @classmethod
    async def build(
        cls,
        seed: int,
        substrate: str,
        tenants: int,
        gw_config: GatewayConfig,
        fbs_config: FBSConfig,
        udp_config: Optional[UdpTransportConfig] = None,
        tracer=None,
        tap: bool = False,
    ) -> "GatewaySite":
        site = cls()
        if substrate == "udp":
            site.gw_transport = await UdpTransport.create(config=udp_config)
            for _ in range(tenants):
                transport = await UdpTransport.create(
                    remote=site.gw_transport.local_address
                )
                site.transports.append(transport)
                site.addresses.append(tuple(transport.local_address))
        else:
            net = Network(seed=seed)
            net.add_segment("site", "10.66.0.0")
            gw_host = net.add_host("gw", segment="site", address=GATEWAY_ADDRESS)
            site.gw_transport = NetsimTransport(gw_host, local_port=GATEWAY_PORT)
            for i in range(tenants):
                host = net.add_host(
                    f"t{i}", segment="site", address=_tenant_address(i)
                )
                site.transports.append(NetsimTransport(
                    host, local_port=5000 + i,
                    remote=(gw_host.address, GATEWAY_PORT),
                ))
                site.addresses.append((str(host.address), 5000 + i))
        domain = FBSDomain(seed=seed, group=OAKLEY2, config=fbs_config)
        gw_endpoint = domain.make_endpoint(
            site.principal, now=site.gw_transport.now, sfl_seed=1, tracer=tracer
        )
        for i, transport in enumerate(site.transports):
            principal = Principal.from_name(f"tenant-{i:02d}")
            site.principals.append(principal)
            site.endpoints.append(domain.make_endpoint(
                principal,
                mapper=FiveTuplePolicy(threshold=fbs_config.threshold),
                now=transport.now,
                sfl_seed=100 + i,
                tracer=tracer,
            ))
        directory = dict(zip(site.addresses, site.principals))
        site.gateway = FBSGateway(
            gw_endpoint,
            TapTransport(site.gw_transport) if tap else site.gw_transport,
            config=gw_config,
            resolver=lambda addr: directory[tuple(addr)],
        )
        return site

    async def close(self) -> None:
        for transport in [self.gw_transport] + self.transports:
            await transport.close()

    def flow(self, rng: random.Random, tenant: int, taken: set) -> FiveTuple:
        """A seeded five-tuple whose FST slot at the tenant is still free,
        so no flow of the workload ever evicts another by hash collision."""
        fst = self.endpoints[tenant].fam.fst
        while True:
            five_tuple = FiveTuple(
                proto=17,
                saddr=IPAddress(_tenant_address(tenant)),
                sport=rng.randrange(1024, 65536),
                daddr=IPAddress(GATEWAY_ADDRESS),
                dport=GATEWAY_PORT,
            )
            slot = fst.slot_for(five_tuple.pack())
            if slot not in taken:
                taken.add(slot)
                return five_tuple

    def attributes(self, five_tuple: FiveTuple, size: int) -> DatagramAttributes:
        return DatagramAttributes(
            destination_id=self.principal.wire_id, five_tuple=five_tuple, size=size
        )

    def max_queued(self) -> int:
        return max(
            (len(tenant.queue) for tenant in self.gateway.tenants.by_name()),
            default=0,
        )


def _tenant_address(index: int) -> str:
    return f"10.66.{1 + index // 200}.{10 + index % 200}"


#: Fully associative flow-key caches: a hit never depends on which other
#: flows share a set, so "all caches hit" holds for every seed.
_ASSOCIATIVE = dict(tfkc_ways=64, rfkc_ways=64)


class GatewayWorkload(Workload):
    """Shared plumbing of the gateway workloads."""

    tenants = 2
    gw_config = GatewayConfig(max_tenants=8, queue_depth=64)
    fbs_config = FBSConfig(**_ASSOCIATIVE)
    udp_config: Optional[UdpTransportConfig] = None
    tap = False

    async def _build_site(self) -> GatewaySite:
        self.site = await GatewaySite.build(
            self.seed, self.substrate, self.tenants, self.gw_config,
            self.fbs_config, self.udp_config, self.tracer, self.tap,
        )
        self.max_queued = 0
        return self.site

    async def teardown(self) -> None:
        await self.site.close()

    def endpoints(self) -> List[FBSEndpoint]:
        return [self.site.gateway.endpoint] + self.site.endpoints

    def counts(self) -> Dict[str, int]:
        # The gateway endpoint alone: tenants are the load generator.
        counters = self.site.gateway.endpoint.registry.snapshot()["counters"]
        return {f"gw.{key}": value for key, value in counters.items()}

    def check(self) -> List[str]:
        gateway = self.site.gateway
        problems = [f"{self.name}: {p}" for p in gateway.admission.check_registry()]
        ledger = gateway.admission.ledger_dict()
        queued = sum(len(tenant.queue) for tenant in gateway.tenants.by_name())
        if ledger["enqueued"] != ledger["delivered"] + queued + ledger["dropped"]["evicted"]:
            problems.append(f"{self.name}: enqueued/delivered do not balance {ledger}")
        if self.max_queued > self.gw_config.queue_depth:
            problems.append(
                f"{self.name}: a tenant queue reached {self.max_queued} "
                f"> {self.gw_config.queue_depth}"
            )
        stats = self.site.gw_transport.stats
        sent = sum(t.stats.datagrams_sent for t in self.site.transports)
        if self.loop == "closed" and (
            stats.queue_drops or stats.datagrams_received != sent
        ):
            problems.append(
                f"{self.name}: sent {sent}, gateway received "
                f"{stats.datagrams_received}, queue drops {stats.queue_drops}"
            )
        return problems

    async def _serve_one(
        self, win: Window, tenant: int, attributes: DatagramAttributes,
        body: bytes, spans, op: int, kind: str,
    ) -> None:
        """Closed-loop operation: protect -> send -> serve_once -> drain."""
        site = self.site
        start = wall()
        wire = site.endpoints[tenant].protect(
            body, site.principal, attributes=attributes
        )
        if spans is None:
            await site.transports[tenant].send(wire)
            outcome = await site.gateway.serve_once(TIMEOUT)
            got = site.gateway.drain().get(site.principals[tenant].name)
        else:
            t = spans.span("core.protect", start, "gateway.datagram", op)
            await site.transports[tenant].send(wire)
            t = spans.span("transport.send", t, "gateway.datagram", op)
            outcome = await site.gateway.serve_once(TIMEOUT)
            t = spans.span("gateway.serve_once." + kind, t, "gateway.datagram", op)
            got = site.gateway.drain().get(site.principals[tenant].name)
            spans.span("gateway.drain", t, "gateway.datagram", op)
        now = wall()
        if spans is not None:
            spans.rows.append(("gateway.datagram", start, now, None, op))
        win.latencies_us.append((now - start) * 1e6)
        win.attempted += 1
        if got:
            self.max_queued = max(self.max_queued, len(got))
        if outcome == "enqueued" and got == [body]:
            win.delivered += 1
            win.payload_bytes += len(body)
        else:
            win.failed += 1


class GwSmall64(GatewayWorkload):
    name = "gw-small-64"
    why = (
        "64 B bodies, 16 resident flows, every cache hits: per-packet handling "
        "(FAM, caches, header codec, admission, asyncio/socket) dominates crypto"
    )
    flows = 8
    size = 64

    async def setup(self) -> None:
        site = await self._build_site()
        self.flow_attributes = []
        for tenant in range(self.tenants):
            taken: set = set()
            self.flow_attributes.append([
                site.attributes(site.flow(self.rng, tenant, taken), self.size)
                for _ in range(self.flows)
            ])
        self.plan = [
            (self.rng.randrange(self.tenants), self.rng.randrange(self.flows))
            for _ in range(4096)
        ]
        self.bodies = [self.rng.randbytes(self.size) for _ in range(256)]
        warm = Window()
        for tenant in range(self.tenants):
            for flow in range(self.flows):
                await self._serve_one(
                    warm, tenant, self.flow_attributes[tenant][flow],
                    self.bodies[0], None, 0, "warm",
                )
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up datagram failed")

    async def _loop(self, win: Window, end: float, ops: int, spans) -> None:
        plan, bodies = self.plan, self.bodies
        while win.attempted < ops:
            tenant, flow = plan[self.cursor % len(plan)]
            body = bodies[self.cursor % len(bodies)]
            self.cursor += 1
            # A fresh attribute object per datagram, as a real sender builds.
            known = self.flow_attributes[tenant][flow]
            attributes = DatagramAttributes(
                destination_id=known.destination_id,
                five_tuple=known.five_tuple,
                size=len(body),
            )
            await self._serve_one(win, tenant, attributes, body, spans, self.cursor, "warm")
            if wall() >= end:
                break


class GwChurn256(GatewayWorkload):
    name = "gw-churn-256"
    why = (
        "48 tenants over a 16-slot table on netsim: admit, evict, certificate "
        "verify, DH modexp and K_f derivation per visit - the caches as writes"
    )
    default_substrate = "netsim"
    warm = False
    tenants = 48
    gw_config = GatewayConfig(max_tenants=16, queue_depth=64)
    size = 256
    #: One visit: the tenant's standing flow A cold at the gateway, A warm,
    #: a brand-new flow B, B warm, A warm.  Three warm in five keeps the
    #: median inside the warm population and the p90 inside first contact.
    VISIT = (("first", "a"), ("warm", "a"), ("new", "b"), ("warm", "b"), ("warm", "a"))

    async def setup(self) -> None:
        site = await self._build_site()
        self.order = list(range(self.tenants))
        self.rng.shuffle(self.order)
        self.standing = []
        self.standing_slot = []
        for tenant in range(self.tenants):
            taken: set = set()
            self.standing.append(site.flow(self.rng, tenant, taken))
            self.standing_slot.append(taken)
        self.bodies = [self.rng.randbytes(self.size) for _ in range(256)]
        self.fresh_flow: Optional[FiveTuple] = None
        self.visits = 0
        self.kinds: List[str] = []
        warm = Window()
        await self._loop(warm, FOREVER, self.tenants * len(self.VISIT), None)
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up visit failed")
        self.kinds.clear()

    async def _loop(self, win: Window, end: float, ops: int, spans) -> None:
        site = self.site
        steps = len(self.VISIT)
        while win.attempted < ops:
            visit, step = divmod(self.cursor, steps)
            tenant = self.order[visit % self.tenants]
            kind, which = self.VISIT[step]
            if step == 0:
                self.visits += 1
                if site.addresses[tenant] in site.gateway.tenants:
                    win.problems.append(
                        f"{self.name}: visit {visit} found its tenant resident"
                    )
                # The visit's new flow: a five-tuple this tenant never used,
                # away from the standing flow's FST slot.
                self.fresh_flow = site.flow(
                    self.rng, tenant, set(self.standing_slot[tenant])
                )
            five_tuple = self.standing[tenant] if which == "a" else self.fresh_flow
            body = self.bodies[self.cursor % len(self.bodies)]
            self.cursor += 1
            self.kinds.append(kind)
            await self._serve_one(
                win, tenant, site.attributes(five_tuple, len(body)), body,
                spans, self.cursor, kind,
            )
            if wall() >= end:
                break

    def check(self) -> List[str]:
        problems = super().check()
        ledger = self.site.gateway.admission.ledger_dict()
        evicted = max(0, self.visits - self.gw_config.max_tenants)
        if ledger["admitted"] != self.visits or ledger["evicted"]["capacity"] != evicted:
            problems.append(
                f"{self.name}: {self.visits} visits but admitted "
                f"{ledger['admitted']}, evicted {ledger['evicted']['capacity']}"
            )
        return problems


class GwFlood1k(GatewayWorkload):
    name = "gw-flood-1k"
    why = (
        "open loop at ~3x capacity, 20% hostile: bounded queues, shed "
        "accounting and the cost of each rejection reason under overload"
    )
    loop = "open"
    flows = 4
    size = 1024
    rate = 8000.0
    pool = 4096
    drain_every = 32
    #: Small enough that drain_every served datagrams can overfill one
    #: tenant's queue, so shed-before-unprotect is exercised and counted.
    gw_config = GatewayConfig(max_tenants=8, queue_depth=16)
    #: The pool is protected once at set-up and re-sent for the whole run,
    #: so freshness must outlast the run; "stale" is stamped 4 windows back.
    fbs_config = FBSConfig(freshness_half_window=3600.0, **_ASSOCIATIVE)
    #: Bounds the worst queueing delay well below one lap of the pool, so a
    #: delivered datagram maps to exactly one due time.
    udp_config = UdpTransportConfig(recv_queue=128)
    tap = True
    SHARES = (("legit", 0.80), ("mac", 0.10), ("stale_timestamp", 0.05), ("header", 0.05))

    async def setup(self) -> None:
        site = await self._build_site()
        rng = self.rng
        kinds: List[str] = []
        for kind, share in self.SHARES:
            kinds += [kind] * round(self.pool * share)
        rng.shuffle(kinds)
        self.kinds = kinds
        self.tenant_of = [rng.randrange(self.tenants) for _ in range(self.pool)]
        self.bodies = [rng.randbytes(self.size) for _ in range(self.pool)]
        flows = []
        for tenant in range(self.tenants):
            taken: set = set()
            flows.append([site.flow(rng, tenant, taken) for _ in range(self.flows)])
        self.wires: List[bytes] = [b""] * self.pool
        window = self.fbs_config.freshness_half_window
        for tenant in range(self.tenants):
            endpoint = site.endpoints[tenant]
            now = site.transports[tenant].now()
            mine = [i for i in range(self.pool) if self.tenant_of[i] == tenant]
            stale = [i for i in mine if kinds[i] == "stale_timestamp"]
            fresh = [i for i in mine if kinds[i] != "stale_timestamp"]
            # Fresh first: a stamp that jumps forward past THRESHOLD would
            # restart the flow, and the pool must stay on its standing flows.
            for group, stamp in ((fresh, now), (stale, now - 4 * window)):
                wires = endpoint.protect_batch(
                    [self.bodies[i] for i in group],
                    site.principal,
                    attributes=[
                        site.attributes(flows[tenant][rng.randrange(self.flows)], self.size)
                        for _ in group
                    ],
                    stamps=[stamp] * len(group),
                )
                for i, wire in zip(group, wires):
                    if kinds[i] == "mac":
                        at = rng.randrange(endpoint.header_size, len(wire))
                        wire = wire[:at] + bytes([wire[at] ^ 0x01]) + wire[at + 1:]
                    elif kinds[i] == "header":
                        wire = wire[: rng.randrange(12, endpoint.header_size)]
                    self.wires[i] = wire
        self.index_of = {wire: i for i, wire in enumerate(self.wires)}
        if len(self.index_of) != self.pool:
            raise RuntimeError(f"{self.name}: pool datagrams are not distinct")
        self.due = [0.0] * self.pool
        self.expected = {
            kind: {"rejected:" + kind, "dropped:backpressure"}
            for kind, _share in self.SHARES
        }
        self.expected["legit"] = {"enqueued", "dropped:backpressure"}
        self.queued: List[List[int]] = [[] for _ in range(self.tenants)]
        self.rejected = {kind: 0 for kind, _share in self.SHARES[1:]}
        self.discarded = 0
        # Warm every flow's receive key before timing: a closed stretch of
        # the pool, one datagram in flight.
        warm = Window()
        self.closed = True
        await self._loop(warm, FOREVER, 256, None)
        self.closed = False
        if warm.failed or warm.problems:
            raise RuntimeError(f"{self.name}: warm-up failed {warm.problems}")

    async def _loop(self, win: Window, end: float, ops: int, spans) -> None:
        """Offer ``rate`` datagrams/s on a fixed schedule and serve what
        arrives; a fixed-count run serves on until the wire is idle."""
        gateway, tap = self.site.gateway, self.site.gateway.transport
        wires, tenant_of, kinds, due = self.wires, self.tenant_of, self.kinds, self.due
        transports, closed = self.site.transports, self.closed
        interval = 1.0 / self.rate
        lap = self.pool * interval
        start = wall()
        sent = served = 0
        while True:
            now = wall()
            if now >= end:
                break
            # Generator: everything that has come due goes out now.
            while sent < ops and (closed or start + sent * interval <= now):
                index = self.cursor % self.pool
                self.cursor += 1
                due[index] = now if closed else start + sent * interval
                win.late_us.append((now - due[index]) * 1e6)
                await transports[tenant_of[index]].send(wires[index])
                sent += 1
                if closed:
                    break
            t = wall()
            outcome = await gateway.serve_once(0.001)
            if outcome is None:
                if sent >= ops:
                    break
                continue
            index = self.index_of[tap.last]
            kind = kinds[index]
            if spans is not None:
                spans.span("gateway.serve_once." + kind, t, "gateway.datagram", index)
            if outcome not in self.expected[kind]:
                win.failed += 1
                win.problems.append(f"{self.name}: a {kind} datagram came out {outcome}")
            elif outcome == "enqueued":
                self.queued[tenant_of[index]].append(index)
            elif outcome.startswith("rejected"):
                self.rejected[kind] += 1
                win.rejected += 1
            served += 1
            if served % self.drain_every == 0:
                self._drain(win, lap)
        self._drain(win, lap)
        win.attempted = sent

    def _drain(self, win: Window, lap: float) -> None:
        """The application takes delivery: every body checked against the
        datagram the tap saw enqueued, latency from that datagram's due time."""
        self.max_queued = max(self.max_queued, self.site.max_queued())
        delivered = self.site.gateway.drain()
        now = wall()
        for tenant, queued in enumerate(self.queued):
            bodies = delivered.get(self.site.principals[tenant].name, [])
            if bodies != [self.bodies[i] for i in queued]:
                win.failed += len(queued)
                win.problems.append(f"{self.name}: tenant {tenant} got the wrong bodies")
            else:
                win.delivered += len(queued)
                win.payload_bytes += sum(len(body) for body in bodies)
                for index in queued:
                    win.latencies_us.append((now - self.due[index]) * 1e6)
                if queued and now - self.due[queued[0]] >= lap:
                    win.problems.append(
                        f"{self.name}: a datagram waited longer than one pool lap"
                    )
            queued.clear()
        tap = self.site.gateway.transport
        depth = tap.stats.datagrams_received - tap.handed - self.discarded
        if depth > self.udp_config.recv_queue:
            win.problems.append(f"{self.name}: transport queue reached {depth}")

    async def quiesce(self) -> None:
        """Throw away what is still in flight: offered, never served, shed."""
        quiet = 0
        while quiet < 3:
            await asyncio.sleep(0)
            dropped = len(self.site.gw_transport.drain())
            self.discarded += dropped
            quiet = 0 if dropped else quiet + 1

    def drop_shares(self) -> Tuple[float, float]:
        """(transport queue drops, kernel drops) as shares of all sent."""
        stats = self.site.gw_transport.stats
        sent = sum(t.stats.datagrams_sent for t in self.site.transports)
        kernel = sent - stats.datagrams_received - stats.queue_drops
        return stats.queue_drops / sent, kernel / sent

    def check(self) -> List[str]:
        problems = super().check()
        stats = self.site.gw_transport.stats
        sent = sum(t.stats.datagrams_sent for t in self.site.transports)
        if sent < stats.datagrams_received + stats.queue_drops:
            problems.append(f"{self.name}: more datagrams came out than went in")
        registry = self.site.gateway.endpoint.registry
        for kind, count in self.rejected.items():
            seen = registry.counter("datagrams_rejected", reason=kind).value
            if seen != count:
                problems.append(
                    f"{self.name}: registry rejected {seen} as {kind}, the "
                    f"generator's classes say {count}"
                )
        return problems


# -- batched replay of a heavy-tailed trace, in memory ------------------------------


class _Clock:
    """The settable clock cell both replay endpoints read."""

    __slots__ = ("t",)

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class ReplaySecretCdf(Workload):
    name = "replay-secret-cdf"
    why = (
        "cdf-web-search sizes, secret, batches of 64 through the numpy lanes: "
        "the batch/vector use of the core+crypto layers the echoes use scalar"
    )
    default_substrate = "memory"
    secret = True
    batch = per_operation = 64
    trace_name = "cdf-web-search"
    vectorize = True

    async def setup(self) -> None:
        trace = build_workload(self.trace_name, self.seed)
        # The load worker's shard-exact endpoints: unbounded FST, fully
        # associative caches large enough never to evict.
        config = FBSConfig(
            tfkc_size=4096, tfkc_ways=4096, rfkc_size=4096, rfkc_ways=4096,
            vectorize=self.vectorize,
        )
        domain = FBSDomain(seed=self.seed, group=OAKLEY2, config=config)
        self.clock = _Clock()
        self.sender = self._endpoint(domain, "replay-sender", 1)
        self.receiver = self._endpoint(domain, "replay-receiver", 2)
        self.hop = DirectHop()
        self.pool = self.rng.randbytes(4096)
        wire_id = self.receiver.principal.wire_id
        self.batches = []
        first_of_flow = {}
        for at in range(0, len(trace) - self.batch + 1, self.batch):
            chunk = trace[at : at + self.batch]
            cuts = [(self.rng.randrange(len(self.pool) - r.size), r.size) for r in chunk]
            attributes = [
                DatagramAttributes(
                    destination_id=wire_id, five_tuple=r.five_tuple, size=r.size
                )
                for r in chunk
            ]
            stamps = [r.time for r in chunk]
            self.batches.append((cuts, attributes, stamps))
            for cut, attribute, stamp in zip(cuts, attributes, stamps):
                first_of_flow.setdefault(attribute.five_tuple, (cut, attribute, stamp))
        # Warm-up: the first datagram of every flow as one batch, so every
        # flow key, crypto state and DES schedule exists before timing.
        firsts = sorted(first_of_flow.values(), key=lambda item: item[2])
        warm = Window()
        self._batch(warm, tuple(zip(*firsts)), None, 0)
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up batch failed")

    def _endpoint(self, domain: FBSDomain, name: str, sfl_seed: int) -> FBSEndpoint:
        principal = Principal.from_name(name)
        return FBSEndpoint(
            principal=principal,
            mkd=domain.enroll_principal(principal, now=self.clock),
            fam=FlowAssociationMechanism(
                mapper=FiveTuplePolicy(threshold=domain.config.threshold),
                fst=UnboundedFlowTable(),
                sfl_seed=sfl_seed,
            ),
            config=domain.config,
            now=self.clock,
            confounder_seed=sfl_seed * 7919 + 1,
            registry=MetricsRegistry(),
        )

    def endpoints(self) -> List[FBSEndpoint]:
        return [self.sender, self.receiver]

    def sample_bodies(self) -> List[bytes]:
        return [self.pool[at : at + size] for at, size in self.batches[0][0]]

    def _batch(self, win: Window, batch, spans, op: int) -> None:
        """One operation: a batch through both endpoints, every body checked."""
        cuts, attributes, stamps = batch
        pool = self.pool
        start = t = wall()
        bodies = [pool[at : at + size] for at, size in cuts]
        self.clock.t = stamps[-1]
        if spans is not None:
            t = spans.span("bench.slice_bodies", t, "replay.batch", op)
        wire = self.sender.protect_batch(
            bodies, self.receiver.principal, attributes=attributes,
            secret=True, stamps=stamps,
        )
        if spans is not None:
            t = spans.span("core.protect_batch", t, "replay.batch", op)
        result = self.receiver.unprotect_batch(
            self.hop.relay(wire), self.sender.principal, secret=True, stamps=stamps
        )
        now = wall()
        if spans is not None:
            spans.rows.append(("core.unprotect_batch", t, now, "replay.batch", op))
            spans.rows.append(("replay.batch", start, now, None, op))
        win.latencies_us.append((now - start) * 1e6)
        win.attempted += len(bodies)
        for body, got in zip(bodies, result.bodies):
            if got == body:
                win.delivered += 1
                win.payload_bytes += len(body)
            else:
                win.failed += 1

    async def _loop(self, win: Window, end: float, ops: int, spans) -> None:
        batches = self.batches
        done = 0
        while done < ops:
            self._batch(win, batches[self.cursor % len(batches)], spans, self.cursor)
            self.cursor += 1
            done += 1
            if wall() >= end:
                break

    def check(self) -> List[str]:
        problems = []
        sent = self.sender.registry.counter("datagrams_sent").value
        accepted = self.receiver.registry.counter("datagrams_accepted").value
        if sent != accepted:
            problems.append(f"{self.name}: sent {sent} but accepted {accepted}")
        evictions = sum(
            value
            for endpoint in self.endpoints()
            for key, value in endpoint.registry.snapshot()["counters"].items()
            if key.startswith("cache_evictions")
        )
        if evictions:
            problems.append(f"{self.name}: {evictions} cache evictions; not shard-exact")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (
        EchoMac1k, EchoSecret512, GwSmall64, GwChurn256, GwFlood1k, ReplaySecretCdf
    )
}
