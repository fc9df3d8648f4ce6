"""The caches' counted eviction surface (the reclamation primitive).

``evict`` is the pressure operation the gateway's tenant eviction is
built on: unlike ``invalidate`` it counts in ``stats.evictions`` and
emits ``CacheEvicted``, exactly like a displacement by ``put`` -- so
the registry's eviction counters tell the whole reclamation story.
"""

from repro.core.caches import (
    AssociativeCache,
    FlowKeyCache,
    MasterKeyCache,
    PublicValueCache,
)
from repro.obs.events import CacheEvicted
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer


class TestDirectMappedEvict:
    def test_live_entry_is_removed_and_counted(self):
        cache = AssociativeCache(8, ways=1)
        cache.put(b"k", b"v")
        assert cache.evict(b"k") is True
        assert cache.get(b"k") is None
        assert cache.stats.evictions == 1

    def test_absent_key_is_a_noop(self):
        cache = AssociativeCache(8, ways=1)
        assert cache.evict(b"k") is False
        assert cache.stats.evictions == 0

    def test_slot_sharing_key_is_not_evicted(self):
        # A different key mapping to the same slot must survive: evict
        # targets an entry, not a slot.
        cache = AssociativeCache(1, ways=1)
        cache.put(b"resident", b"v")
        assert cache.evict(b"other") is False
        assert cache.get(b"resident") == b"v"

    def test_evict_emits_the_event(self):
        sink = RingBufferSink()
        cache = AssociativeCache(8, ways=1, tracer=Tracer(sink), trace_name="RFKC")
        cache.put(b"k", b"v")
        cache.evict(b"k")
        evicted = sink.of_type(CacheEvicted)
        assert len(evicted) == 1 and evicted[0].cache == "RFKC"


class TestAssociativeEvict:
    def test_live_entry_is_removed_and_counted(self):
        cache = AssociativeCache(8)
        cache.put(b"k", b"v")
        assert cache.evict(b"k") is True
        assert cache.get(b"k") is None
        assert cache.stats.evictions == 1

    def test_absent_key_is_a_noop(self):
        cache = AssociativeCache(8)
        assert cache.evict(b"k") is False
        assert cache.stats.evictions == 0


class TestLevelWrappers:
    def test_flow_key_cache_evicts_by_flow(self):
        cache = FlowKeyCache(16, name="RFKC")
        cache.install(7, b"D", b"S", b"\x01" * 16)
        assert cache.evict_flow(7, b"D", b"S") is True
        assert cache.lookup(7, b"D", b"S") is None
        assert cache.evict_flow(7, b"D", b"S") is False  # idempotent

    def test_master_key_cache_evicts_by_principal(self):
        cache = MasterKeyCache(8)
        cache.install(b"peer", b"\x02" * 16)
        assert cache.evict(b"peer") is True
        assert cache.lookup(b"peer") is None
        assert cache.stats.evictions == 1

    def test_pvc_evicts_by_principal(self):
        cache = PublicValueCache(8)
        cache.install(b"peer", object())
        assert cache.evict(b"peer") is True
        assert cache.lookup(b"peer") is None

    def test_pinned_certificates_survive_pressure(self):
        cache = PublicValueCache(8)
        pinned = object()
        cache.pin(b"peer", pinned)
        assert cache.evict(b"peer") is False
        assert cache.lookup(b"peer") is pinned
