"""A full table turns its coldest tenant out with its key-cache footprint.

Driven through the public path: a one-slot table, a warm tenant, and a
second tenant whose first datagram evicts it.
"""

from repro.gateway.site import GATEWAY_PORT
from repro.gateway.tenants import GatewayConfig
from repro.obs.events import CacheEvicted
from repro.obs.sinks import RingBufferSink
from repro.transport.netsim import NetsimTransport

from tests.gateway.helpers import gateway_site, send_protected, serve_one


def evicting_site(tracer=None):
    """tenant-00 served (RFKC + MKC + PVC warm), then evicted by tenant-01."""
    site = gateway_site(
        tenants=2, gw_config=GatewayConfig(max_tenants=1), tracer=tracer
    )
    send_protected(site, 0, b"warmup")
    assert serve_one(site) == "enqueued"
    send_protected(site, 1, b"newcomer")
    assert serve_one(site) == "enqueued"
    return site


class TestFootprintReclamation:
    def test_victim_entries_leave_the_caches(self):
        site = evicting_site()
        victim = site.principals[0].wire_id
        endpoint = site.gateway.endpoint
        assert endpoint.mkd.mkc.lookup(victim) is None
        assert endpoint.mkd.pvc.lookup(victim) is None
        assert endpoint.mkd.mkc.lookup(site.principals[1].wire_id) is not None

    def test_reclaims_rfkc_mkc_and_pvc(self):
        site = evicting_site()
        counters = site.gateway.endpoint.registry.snapshot()["counters"]
        assert {
            cache: counters[f"cache_evictions{{cache={cache}}}"]
            for cache in ("PVC", "MKC", "TFKC", "RFKC")
        } == {"PVC": 1, "MKC": 1, "TFKC": 0, "RFKC": 1}

    def test_reclamation_emits_one_event_per_entry(self):
        sink = RingBufferSink()
        evicting_site(tracer=sink)
        assert [e.cache for e in sink.of_type(CacheEvicted)] == [
            "RFKC",
            "MKC",
            "PVC",
        ]

    def test_returning_tenant_rekeys_through_the_miss_path(self):
        site = evicting_site()
        derivations = site.gateway.endpoint.registry.counter(
            "flow_key_derivations", side="receive"
        )
        warm = derivations.value
        # Soft state: the victim's next datagram re-derives, nothing breaks.
        send_protected(site, 0, b"back again")
        assert serve_one(site) == "enqueued"
        assert derivations.value == warm + 1


class TestUnknownPeer:
    def test_a_stranger_costs_no_tenant(self):
        site = gateway_site(tenants=2, gw_config=GatewayConfig(max_tenants=2))
        for i in (0, 1):
            send_protected(site, i, b"queued")
            assert serve_one(site) == "enqueued"
        received = site.gateway.endpoint.registry.counter("datagrams_received")
        before = received.value
        outcome = site.gateway._process(b"\0" * 40, ("10.99.0.99", 1234))
        assert outcome == "dropped:unknown_peer"
        assert len(site.gateway.tenants) == 2
        assert site.gateway.tenants.total_queued() == 2
        assert received.value == before
        ledger = site.gateway.admission.ledger_dict()
        assert ledger["admitted"] == 2
        assert ledger["evicted"] == {"capacity": 0}
        assert ledger["dropped"] == {
            "backpressure": 0,
            "evicted": 0,
            "unknown_peer": 1,
        }
        assert site.gateway.admission.check_registry() == []

    def test_a_stranger_on_the_wire_is_served_as_a_drop(self):
        site = gateway_site(tenants=1)
        host = site.net.add_host("x", segment="site", address="10.99.0.99")
        stranger = NetsimTransport(
            host, local_port=1234, remote=(site.gateway.transport.host.address, GATEWAY_PORT)
        )
        stranger.send_sync(b"\0" * 40)
        assert serve_one(site) == "dropped:unknown_peer"
        send_protected(site, 0, b"still served")
        assert serve_one(site) == "enqueued"
        assert site.gateway.drain() == {"tenant-00": [b"still served"]}
