"""The gateway serve loop: admission, backpressure, eviction, delivery."""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.gateway.server import FBSGateway
from repro.gateway.tenants import GatewayConfig
from repro.obs.events import TenantAdmitted, TenantEvicted
from repro.obs.sinks import RingBufferSink
from repro.transport import UdpTransport

from tests.core.test_mkd import recertify
from tests.gateway.helpers import gateway_site, send_protected, serve_one


class TestFirstContact:
    def test_first_datagram_admits_and_delivers(self):
        site = gateway_site(tenants=1)
        send_protected(site, 0, b"hello gateway")
        assert serve_one(site) == "enqueued"
        assert site.gateway.admission.ledger_dict()["admitted"] == 1
        assert site.gateway.drain() == {"tenant-00": [b"hello gateway"]}

    def test_zero_message_keying_needs_no_handshake(self):
        # First contact is one datagram: admit + key + deliver.  The
        # second datagram rides the warm caches -- no new derivation.
        site = gateway_site(tenants=1)
        derivations = site.gw_endpoint.registry.counter(
            "flow_key_derivations", side="receive"
        )
        send_protected(site, 0, b"first")
        assert serve_one(site) == "enqueued"
        assert derivations.value == 1
        send_protected(site, 0, b"second")
        assert serve_one(site) == "enqueued"
        assert derivations.value == 1

    def test_admission_emits_the_event(self):
        sink = RingBufferSink()
        site = gateway_site(tenants=1, tracer=sink)
        send_protected(site, 0)
        serve_one(site)
        admitted = sink.of_type(TenantAdmitted)
        assert [e.peer for e in admitted] == ["tenant-00"]

    def test_idle_wire_returns_none(self):
        site = gateway_site(tenants=1)
        assert serve_one(site, timeout=0.5) is None

    def test_flows_are_recorded_per_tenant(self):
        site = gateway_site(tenants=2)
        for i in (0, 1):
            send_protected(site, i)
            serve_one(site)
        tenants = site.gateway.tenants.by_name()
        assert [len(t.flows) for t in tenants] == [1, 1]


class TestEviction:
    def config(self):
        return GatewayConfig(max_tenants=2)

    def test_full_table_evicts_the_coldest(self):
        sink = RingBufferSink()
        site = gateway_site(tenants=3, gw_config=self.config(), tracer=sink)
        for i in range(3):  # third admission evicts tenant-00
            send_protected(site, i)
            assert serve_one(site) == "enqueued"
        assert len(site.gateway.tenants) == 2
        evicted = sink.of_type(TenantEvicted)
        assert [(e.peer, e.reason) for e in evicted] == [
            ("tenant-00", "capacity")
        ]
        ledger = site.gateway.admission.ledger_dict()
        assert ledger["evicted"]["capacity"] == 1

    def test_eviction_reclaims_the_key_caches(self):
        site = gateway_site(tenants=3, gw_config=self.config())
        for i in range(3):
            send_protected(site, i)
            serve_one(site)
        # The victim's master key and certificate are gone from the
        # gateway's caches, through the counted eviction path.
        victim = site.principals[0].wire_id
        endpoint = site.gw_endpoint
        assert endpoint.mkd.mkc.lookup(victim) is None
        assert endpoint.mkd.mkc.stats.evictions == 1
        assert endpoint.rfkc.stats.evictions == 1
        snapshot = endpoint.registry.snapshot()
        assert snapshot["counters"]["cache_evictions{cache=MKC}"] == 1
        assert snapshot["counters"]["cache_evictions{cache=RFKC}"] == 1

    def test_activity_refreshes_lru_position(self):
        site = gateway_site(tenants=3, gw_config=self.config())
        for i in (0, 1):
            send_protected(site, i)
            serve_one(site)
        send_protected(site, 0)  # touch tenant-00: tenant-01 is now coldest
        serve_one(site)
        send_protected(site, 2)
        serve_one(site)
        names = sorted(t.name for t in site.gateway.tenants.by_name())
        assert names == ["tenant-00", "tenant-02"]

    def test_evicted_tenant_readmits_on_next_contact(self):
        site = gateway_site(tenants=3, gw_config=self.config())
        for i in range(3):
            send_protected(site, i)
            serve_one(site)
        send_protected(site, 0, b"i am back")
        assert serve_one(site) == "enqueued"
        assert site.gateway.admission.ledger_dict()["admitted"] == 4

    def test_undelivered_queue_is_counted_dropped(self):
        site = gateway_site(tenants=3, gw_config=self.config())
        for i in range(2):
            send_protected(site, i)
            serve_one(site)
        # tenant-00 has one undelivered body when evicted.
        send_protected(site, 2)
        serve_one(site)
        assert site.gateway.admission.ledger_dict()["dropped"]["evicted"] == 1


class TestBackpressure:
    def test_full_queue_drops_with_reason(self):
        site = gateway_site(tenants=1, gw_config=GatewayConfig(queue_depth=2))
        for i in range(3):
            send_protected(site, 0, b"body %d" % i)
        assert serve_one(site) == "enqueued"
        assert serve_one(site) == "enqueued"
        assert serve_one(site) == "dropped:backpressure"
        tenant = site.gateway.tenants.by_name()[0]
        assert len(tenant.queue) == 2 and tenant.dropped == 1

    def test_shedding_happens_before_unprotect(self):
        # No crypto is spent on a datagram that cannot be delivered: the
        # endpoint never even sees it.
        site = gateway_site(tenants=1, gw_config=GatewayConfig(queue_depth=1))
        received = site.gw_endpoint.registry.counter("datagrams_received")
        for _ in range(2):
            send_protected(site, 0)
        serve_one(site)
        assert serve_one(site) == "dropped:backpressure"
        assert received.value == 1

    def test_drain_reopens_the_queue(self):
        site = gateway_site(tenants=1, gw_config=GatewayConfig(queue_depth=1))
        send_protected(site, 0, b"one")
        serve_one(site)
        assert site.gateway.drain() == {"tenant-00": [b"one"]}
        send_protected(site, 0, b"two")
        assert serve_one(site) == "enqueued"


class TestRejections:
    def test_garbage_is_rejected_with_the_endpoint_reason(self):
        site = gateway_site(tenants=1)
        send_protected(site, 0, raw=b"too short")
        assert serve_one(site) == "rejected:header"
        rejected = site.gw_endpoint.registry.counter(
            "datagrams_rejected", reason="header"
        )
        assert rejected.value == 1

    def test_rejection_still_admits_the_tenant(self):
        # Admission keys on the transport address; a garbage datagram
        # from a new peer creates the tenant, then fails unprotect.
        site = gateway_site(tenants=1)
        send_protected(site, 0, raw=b"garbage")
        serve_one(site)
        assert len(site.gateway.tenants) == 1
        assert site.gateway.admission.ledger_dict()["enqueued"] == 0


    def test_certified_degenerate_public_value_is_a_keying_rejection(self):
        # The CA signed it, so the signature verifies; the value is
        # p - 1, which no modexp may be spent on.  The serve loop sees a
        # rejection with a reason, never the daemon's exception.
        site = gateway_site(tenants=2)
        recertify(
            site.domain.ca,
            site.domain.directory,
            site.principals[0],
            public_value=site.domain.group.p - 1,
        )
        send_protected(site, 0)
        assert serve_one(site) == "rejected:keying"
        send_protected(site, 1, b"the others are served")
        assert serve_one(site) == "enqueued"
        assert site.gw_endpoint.mkd.master_keys_computed == 1
        ledger = site.gateway.admission.ledger_dict()
        assert (ledger["admitted"], ledger["enqueued"]) == (2, 1)
        assert site.gateway.tenants.total_queued() == 1
        assert site.gateway.admission.check_registry() == []


#: (tenant, body size, kind) per datagram.  ``forged`` flips a covered
#: bit, ``stale`` is stamped far outside the freshness window.
TRAFFIC = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from((0, 1, 64, 300)),
        st.sampled_from(("good", "good", "forged", "stale")),
    ),
    min_size=1,
    max_size=14,
)
#: Four tenants over two slots and shallow queues: eviction,
#: re-admission and backpressure all occur in a short mix.
TIGHT = GatewayConfig(max_tenants=2, queue_depth=2)


def wire_for(site, tenant, size, kind):
    endpoint = site.endpoints[tenant]
    stamp = endpoint.now() + (10_000.0 if kind == "stale" else 0.0)
    (wire,) = endpoint.protect_batch(
        (bytes([65 + tenant]) * size,), site.gw_principal, stamps=(stamp,)
    )
    if kind == "forged":
        wire = wire[:-1] + bytes([wire[-1] ^ 1])
    return wire


def observed(gateway, outcomes):
    """Everything ``serve_ready`` must leave as ``serve_once`` does."""
    tenants = gateway.tenants
    return (
        outcomes,
        gateway.admission.ledger_dict(),
        gateway.admission.check_registry(),
        gateway.endpoint.registry.snapshot(),
        tenants.coldest().name if len(tenants) else None,
        [(t.name, list(t.queue), t.summary()) for t in tenants.by_name()],
    )


async def one_at_a_time(gateway, limit):
    outcomes = [await gateway.serve_once(0) for _ in range(limit)]
    return [outcome for outcome in outcomes if outcome is not None]


#: The two ways to serve ``limit`` datagrams that must be one.
SERVERS = (FBSGateway.serve_ready, one_at_a_time)


class TestServeReady:
    @settings(max_examples=30, deadline=None)
    @given(traffic=TRAFFIC, limit=st.integers(0, 16), seed=st.integers(0, 3))
    def test_equals_that_many_serve_once_calls_over_netsim(
        self, traffic, limit, seed
    ):
        def run(serve):
            site = gateway_site(tenants=4, seed=seed, gw_config=TIGHT)
            for tenant, size, kind in traffic:
                send_protected(site, tenant, raw=wire_for(site, tenant, size, kind))
            site.net.sim.run()  # everything sent has arrived
            return observed(site.gateway, asyncio.run(serve(site.gateway, limit)))

        ready, once = (run(serve) for serve in SERVERS)
        assert ready == once
        assert len(ready[0]) == min(limit, len(traffic))

    def test_never_waits_on_an_idle_wire(self):
        site = gateway_site(tenants=1)
        before = site.gw_transport.now()
        assert asyncio.run(site.gateway.serve_ready(8)) == []
        assert site.gw_transport.now() == before

    @settings(max_examples=5, deadline=None)
    @given(traffic=TRAFFIC, limit=st.integers(1, 16))
    def test_equals_that_many_serve_once_calls_over_loopback_udp(
        self, traffic, limit
    ):
        async def run(serve):
            # The site's principals and endpoints, real sockets for its
            # wire; the gateway starts once it holds every datagram.
            site = gateway_site(tenants=4, gw_config=TIGHT)
            listening = await UdpTransport.create()
            tenants = [
                await UdpTransport.create(remote=listening.local_address)
                for _ in site.principals
            ]
            directory = {
                t.local_address: principal
                for t, principal in zip(tenants, site.principals)
            }
            gateway = FBSGateway(
                site.gw_endpoint, listening, TIGHT,
                resolver=lambda addr: directory[tuple(addr)],
            )
            try:
                for sent, (tenant, size, kind) in enumerate(traffic, 1):
                    await tenants[tenant].send(wire_for(site, tenant, size, kind))
                    while listening.stats.datagrams_received < sent:
                        await asyncio.sleep(0.001)
                return observed(gateway, await serve(gateway, limit))
            finally:
                for transport in (listening, *tenants):
                    await transport.close()

        ready, once = (asyncio.run(run(serve)) for serve in SERVERS)
        assert ready == once
        assert len(ready[0]) == min(limit, len(traffic))


class TestAccounting:
    def test_ledger_registry_and_queues_close_exactly(self):
        site = gateway_site(
            tenants=3, gw_config=GatewayConfig(max_tenants=2, queue_depth=2)
        )
        for round_index in range(3):
            for i in range(3):
                send_protected(site, i, b"r%d" % round_index)
                serve_one(site)
        site.gateway.drain()
        send_protected(site, 0)
        serve_one(site)
        assert site.gateway.admission.check_registry() == []
        ledger = site.gateway.admission.ledger_dict()
        queued = site.gateway.tenants.total_queued()
        assert ledger["enqueued"] == (
            ledger["delivered"] + ledger["dropped"]["evicted"] + queued
        )

    def test_snapshot_gauges_reflect_live_state(self):
        site = gateway_site(tenants=2)
        for i in range(2):
            send_protected(site, i)
            serve_one(site)
        snapshot = site.gw_endpoint.registry.snapshot()
        assert snapshot["gauges"]["gateway_active_tenants"] == 2.0
        assert snapshot["gauges"]["gateway_queue_depth"] == 2.0
        site.gateway.drain()
        snapshot = site.gw_endpoint.registry.snapshot()
        assert snapshot["gauges"]["gateway_queue_depth"] == 0.0
