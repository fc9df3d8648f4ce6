"""The gateway under the oracle: one ``FBSGateway`` against two models.

A hypothesis ``RuleBasedStateMachine`` over one gateway on netsim
(``repro.gateway.site.build_site``) whose world is drawn per run:
1..3 table slots, queues of 0..4 bodies, two tenants more than there
are slots, and the replay guard off or on.  Rules: an enrolled tenant
sends a fresh, stale, forged, truncated or replayed datagram; a
stranger sends, from an address the resolver does not know or from an
enrolled tenant's address with a datagram it has no key for;
``serve_once`` and ``serve_ready(k)``; ``drain``; ``flush_all_caches``
on the gateway endpoint; ``tick``; and churn, every tenant in turn,
past ``max_tenants``.

Each served datagram's outcome must be what the admission model
(``tests/spec/gateway_spec.py``) makes of it, with FBSReceive's verdict
from ``tests/spec/fbs_spec.py``.  After every step:

* each tenant's delivered bodies are a subset of what it sent (and
  what the model delivers);
* the admission ledger is the model's and ``check_registry() == []``;
  the endpoint has seen exactly the datagrams the model let reach
  crypto; the trace folds to the live counters;
* the table holds the model's tenants, so never more than
  ``max_tenants``, coldest first as the model's, with its queues and
  each tenant's report row counted from its outcomes; the RFKC holds
  no flow of an address that is not a tenant (a flow enters it only
  with a delivered datagram), and an evicted tenant's master key and
  certificate are gone from the MKC and PVC until a datagram of its
  address reaches FBSReceive again;
* the wire has carried only the datagrams the rules sent, so after a
  gateway flush each tenant's next datagram that FBSReceive accepts is
  ``enqueued`` with zero extra messages (Sections 5.3 and 7.1).
"""

import asyncio
from collections import Counter, deque
from itertools import count

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import FBSConfig
from repro.gateway.site import GATEWAY_PORT
from repro.gateway.tenants import GatewayConfig
from repro.obs.sinks import AggregatingSink
from repro.transport.netsim import NetsimTransport
from tests.gateway.helpers import gateway_site
from tests.property.test_receive_contract import cached_flows
from tests.spec.fbs_spec import Domain, spec_receive
from tests.spec.gateway_spec import GatewaySpec

#: A source address no resolver knows.
STRANGER = ("10.99.0.99", 1234)
#: Counters a trace folds to that the live registry counts as they go
#: (the cache counters are synced at snapshot).
FOLDED = (
    "gateway_tenants_admitted", "gateway_tenants_evicted",
    "datagrams_accepted", "datagrams_rejected",
)  # fmt: skip
#: ``replayed`` puts the same datagram on the wire twice.
KINDS = ("fresh", "fresh", "stale", "forged", "truncated", "replayed")


def holds(cache, key):
    """Whether a Figure 5 cache holds ``key``, read without touching
    its LRU order or statistics."""
    inner = cache._cache
    return key in inner._set_for(key)


class Gateway(RuleBasedStateMachine):
    @initialize(
        slots=st.integers(1, 3), depth=st.integers(0, 4), guard=st.sampled_from([0, 4])
    )
    def build(self, slots, depth, guard):
        self.trace = AggregatingSink()
        site = self.site = gateway_site(
            tenants=slots + 2,
            config=FBSConfig(replay_guard_size=guard),
            gw_config=GatewayConfig(max_tenants=slots, queue_depth=depth),
            tracer=self.trace,
        )
        host = site.net.add_host("stranger", segment="site", address=STRANGER[0])
        gw_address = (site.gateway.transport.host.address, GATEWAY_PORT)
        self.stranger = NetsimTransport(host, STRANGER[1], remote=gw_address)
        self.addrs = [(str(t.host.address), t.local_port) for t in site.transports]
        names = [p.name for p in site.principals]
        self.model = GatewaySpec(dict(zip(self.addrs, names)), slots, depth)
        self.spec = Domain.enrolled(site.domain, site.gw_principal, *site.principals)
        self.wire_ids = {p.name: p.wire_id for p in site.principals}
        self.frames = []
        site.net.segment("site").attach_tap(self.frames.append)
        self.pending = deque()  # (source address, wire), in arrival order
        self.sends = 0
        self.sent = {name: set() for name in names}
        self.seen = []  # the specification's replay memory
        self.crypto = 0  # datagrams the model let reach FBSReceive
        self.bodies = count()
        self.addr_of = dict(zip(names, self.addrs))
        self.stays = {}  # address -> its outcomes since its admission

    def put(self, transport, wire):
        transport.send_sync(wire)
        self.site.net.sim.run()  # arrived: the gateway's queue is the send order
        self.sends += 1
        self.pending.append(((str(transport.host.address), transport.local_port), wire))

    def protect(self, tenant, skew=0.0):
        body = b"%d from tenant %d" % (next(self.bodies), tenant)
        self.sent[self.site.principals[tenant].name].add(body)
        return self.site.protect(tenant, body, skew=skew)

    # -- traffic ---------------------------------------------------------------

    @rule(tenant=st.integers(0, 4), kind=st.sampled_from(KINDS), at=st.integers(0, 2**16))
    def send(self, tenant, kind, at):
        tenant %= len(self.addrs)
        wire = self.protect(tenant, 10_000.0 if kind == "stale" else 0.0)
        if kind == "forged":
            i, bit = divmod(at % (8 * len(wire)), 8)
            wire = wire[:i] + bytes([wire[i] ^ 1 << bit]) + wire[i + 1 :]
        elif kind == "truncated":
            wire = wire[: at % len(wire)]
        elif kind == "replayed":
            self.put(self.site.transports[tenant], wire)
        self.put(self.site.transports[tenant], wire)

    @rule(victim=st.none() | st.integers(0, 4), donor=st.integers(0, 3))
    def stranger(self, victim, donor):
        """Another tenant's datagram from an address no resolver knows
        (no victim), or from the victim's address: a spoofer holding
        only its own key."""
        n = len(self.addrs)
        victim = None if victim is None else victim % n
        wire = self.protect(((victim or 0) + 1 + donor % (n - 1)) % n)
        self.put(self.stranger if victim is None else self.site.transports[victim], wire)

    @rule()
    def churn(self):
        """Every tenant in turn, each served at once: past max_tenants."""
        for tenant in range(len(self.addrs)):
            self.put(self.site.transports[tenant], self.protect(tenant))
            self.serve_ready(len(self.pending))

    # -- serving ---------------------------------------------------------------

    def expect(self, limit):
        """The models' outcomes for the next ``limit`` arrivals, now."""
        now = self.site.gateway.transport.now()
        gw_id = self.site.gw_principal.wire_id
        outcomes = []
        for _ in range(min(limit, len(self.pending))):
            addr, wire = self.pending.popleft()

            def receive(name, wire=wire):
                self.crypto += 1
                source = self.wire_ids[name]
                return spec_receive(self.spec, source, gw_id, wire, now, False, self.seen)

            if addr not in self.model.table:
                self.stays[addr] = Counter()  # a first contact (or a stranger)
            flow = int.from_bytes(wire[:8], "big")
            outcomes.append(self.model.arrive(addr, flow, receive))
            self.stays[addr][outcomes[-1]] += 1
        return outcomes

    @rule()
    def serve_once(self):
        expected = self.expect(1)
        outcome = asyncio.run(self.site.gateway.serve_once(0))
        assert ([] if outcome is None else [outcome]) == expected

    @rule(limit=st.integers(0, 8))
    def serve_ready(self, limit):
        expected = self.expect(limit)
        assert asyncio.run(self.site.gateway.serve_ready(limit)) == expected

    @rule()
    def drain(self):
        queued = sum(len(queue) for queue, _ in self.model.table.values())
        gauges = self.site.gateway.endpoint.registry.snapshot()["gauges"]
        assert gauges["gateway_queue_depth"] == queued
        assert gauges["gateway_active_tenants"] == len(self.model.table)
        delivered = self.site.gateway.drain()
        assert delivered == self.model.drain()
        for name, bodies in delivered.items():
            assert set(bodies) <= self.sent[name]
            self.stays[self.addr_of[name]]["delivered"] += len(bodies)

    @rule()
    def flush(self):
        self.site.gateway.endpoint.flush_all_caches()
        self.seen.clear()

    @rule(step=st.sampled_from([0.5, 59.5, 121.0, 601.0]))
    def tick(self, step):
        """Within a minute, past the freshness half window, past THRESHOLD."""
        sim = self.site.net.sim
        sim.run(until=sim.now + step)

    # -- after every step ------------------------------------------------------

    def summary(self, addr, queue, flows):
        """A resident tenant's report row, from its stay's outcomes."""
        stay = self.stays[addr]
        return {
            "delivered": stay["delivered"], "dropped": stay["dropped:backpressure"],
            "enqueued": stay["enqueued"], "flows": len(flows), "queued": len(queue),
        }  # fmt: skip

    @invariant()
    def agrees_with_the_models(self):
        gateway, endpoint = self.site.gateway, self.site.gateway.endpoint
        assert gateway.admission.ledger_dict() == self.model.ledger
        assert gateway.admission.check_registry() == []
        for name in FOLDED:
            assert self.trace.registry.sum_counter(name) == endpoint.registry.sum_counter(name)
        received = endpoint.registry.counter("datagrams_received").value
        assert received == self.crypto
        table = self.model.table
        assert len(gateway.tenants) == len(table) <= gateway.config.max_tenants
        assert [addr in gateway.tenants for addr in self.addrs] == [
            addr in table for addr in self.addrs
        ]
        assert {t.addr: (list(t.queue), t.summary()) for t in gateway.tenants.by_name()} == {
            addr: (queue, self.summary(addr, queue, flows))
            for addr, (queue, flows) in table.items()
        }
        if table:
            assert gateway.tenants.coldest().addr == next(iter(table))
        me = self.site.gw_principal.wire_id
        sources = {key[8 + len(me) :] for key in cached_flows(endpoint)[1]}
        for addr in self.addrs:
            peer = self.wire_ids[self.model.directory[addr]]
            if addr not in table:
                assert peer not in sources
            if addr in self.model.reclaimed:
                assert not holds(endpoint.mkd.mkc, peer)
                assert not holds(endpoint.mkd.pvc, peer)
        assert len(self.frames) == self.sends


# Tier-1 takes the default profile's share; ``--hypothesis-profile=nightly``
# (tests/conftest.py) multiplies it by ten.
Gateway.TestCase.settings = settings(
    max_examples=15 * settings.default.max_examples // 100,
    stateful_step_count=25,
    deadline=None,
)
TestGatewayAgainstTheModels = Gateway.TestCase
