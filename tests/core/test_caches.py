"""Key cache tests: organizations, miss classification, named caches.

A live cache counts hits, misses and evictions; the cold / capacity /
collision split is Figure 11's, so its cases replay traces through
``traces.flowsim.CacheSimulator``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caches import (
    AssociativeCache,
    FlowKeyCache,
    MasterKeyCache,
    PublicValueCache,
)
from repro.crypto.crc import Crc32Hash, ModuloHash
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.obs.events import CacheEvicted
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.traces.flowsim import CacheSimulator
from repro.traces.records import PacketRecord, Trace

SENDER = IPAddress("10.0.0.1")


def sent(*flows):
    """A trace of one datagram a second from ``SENDER``, flow ``f`` on
    source port ``1000 + f``.  Each flow is one sfl; under
    ``ModuloHash`` the TFKC key's low bytes are the sender's address,
    so every flow indexes one set."""
    return Trace(
        PacketRecord(
            time=float(t),
            five_tuple=FiveTuple(17, SENDER, 1000 + flow, IPAddress("10.0.0.2"), 53),
            size=100,
        )
        for t, flow in enumerate(flows)
    )


class TestDirectMapped:
    def test_put_get(self):
        cache = AssociativeCache(8, ways=1)
        cache.put(b"k1", "v1")
        assert cache.get(b"k1") == "v1"

    def test_miss_returns_none(self):
        cache = AssociativeCache(8, ways=1)
        assert cache.get(b"absent") is None

    def test_collision_evicts(self):
        cache = AssociativeCache(1, ways=1)
        cache.put(b"a", 1)
        cache.put(b"b", 2)
        assert cache.get(b"a") is None
        assert cache.get(b"b") == 2

    def test_invalidate(self):
        cache = AssociativeCache(8, ways=1)
        cache.put(b"k", 1)
        cache.invalidate(b"k")
        assert cache.get(b"k") is None

    def test_flush(self):
        cache = AssociativeCache(8, ways=1)
        cache.put(b"k", 1)
        cache.flush()
        assert len(cache) == 0

    def test_len(self):
        cache = AssociativeCache(16, ways=1)
        for i in range(5):
            cache.put(i.to_bytes(4, "big"), i)
        assert 1 <= len(cache) <= 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AssociativeCache(0, ways=1)


class TestMissClassification:
    def test_cold_miss(self):
        stats = CacheSimulator(4).send_side(sent(0), SENDER)
        assert (stats.cold_misses, stats.misses) == (1, 1)

    def test_hit_counted(self):
        cache = AssociativeCache(4, ways=1)
        cache.put(b"k", 1)
        cache.get(b"k")
        assert cache.stats.hits == 1

    def test_collision_miss_identified(self):
        # Two flows, one slot, cache big enough in the ideal model:
        # re-reading the displaced flow is a collision miss.
        simulator = CacheSimulator(4, index_hash=ModuloHash())
        stats = simulator.send_side(sent(0, 1, 0), SENDER)
        assert (stats.cold_misses, stats.collision_misses) == (2, 1)

    def test_capacity_miss_identified(self):
        simulator = CacheSimulator(2, index_hash=ModuloHash())
        # Re-reading flow 0: gone from the 2-entry ideal LRU too.
        stats = simulator.send_side(sent(0, 1, 2, 3, 0), SENDER)
        assert (stats.cold_misses, stats.capacity_misses) == (4, 1)

    def test_miss_rate(self):
        cache = AssociativeCache(4, ways=1)
        cache.get(b"x")  # miss
        cache.put(b"x", 1)
        cache.get(b"x")  # hit
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_miss_rate_empty(self):
        assert AssociativeCache(4, ways=1).stats.miss_rate == 0.0

    def test_a_dropped_entry_counts_one_plain_miss(self):
        # A live cache keeps no shadow of what it dropped: the next
        # lookup of a flushed or evicted key is one more miss.
        cache = AssociativeCache(4)
        cache.get(b"a"); cache.put(b"a", 1); cache.flush(); cache.get(b"a")
        cache.get(b"b"); cache.put(b"b", 2); cache.evict(b"b"); cache.get(b"b")
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (0, 4, 1)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 4), flows=st.lists(st.integers(0, 6), max_size=60))
    def test_a_fully_associative_cache_has_no_collision_misses(self, capacity, flows):
        simulator = CacheSimulator(capacity, ways=capacity, index_hash=ModuloHash())
        stats = simulator.send_side(sent(*flows), SENDER)
        assert stats.lookups == len(flows)
        assert stats.collision_misses == 0


class TestAssociative:
    def test_lru_eviction(self):
        cache = AssociativeCache(2)
        cache.put(b"a", 1)
        cache.put(b"b", 2)
        cache.get(b"a")  # a is now MRU
        cache.put(b"c", 3)  # evicts b
        assert cache.get(b"b") is None
        assert cache.get(b"a") == 1
        assert cache.get(b"c") == 3

    def test_update_existing(self):
        cache = AssociativeCache(2)
        cache.put(b"a", 1)
        cache.put(b"a", 2)
        assert cache.get(b"a") == 2
        assert len(cache) == 1

    def test_set_associative(self):
        cache = AssociativeCache(8, ways=2)
        assert cache.sets == 4
        for i in range(16):
            cache.put(i.to_bytes(4, "big"), i)
        assert len(cache) <= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            AssociativeCache(4, ways=8)
        with pytest.raises(ValueError):
            AssociativeCache(6, ways=4)  # not a multiple

    @pytest.mark.parametrize("ways", [0, -1])
    def test_ways_below_one_is_rejected_not_reinterpreted(self, ways):
        # ways=0 used to mean "fully associative" here and
        # "direct-mapped" in FlowKeyCache; only None is a default.
        with pytest.raises(ValueError, match=r"ways must be in \[1, capacity\]"):
            AssociativeCache(8, ways=ways)
        with pytest.raises(ValueError, match=r"ways must be in \[1, capacity\]"):
            FlowKeyCache(8, ways=ways)

    def test_ways_none_is_fully_associative(self):
        cache = AssociativeCache(8, ways=None)
        assert (cache.ways, cache.sets) == (8, 1)

    def test_one_way_is_direct_mapped(self):
        cache = AssociativeCache(8, ways=1)
        assert (cache.ways, cache.sets) == (1, 8)

    def test_invalidate_is_not_an_eviction(self):
        cache = AssociativeCache(8, ways=1)
        cache.put(b"k", 1)
        cache.invalidate(b"k")
        assert cache.get(b"k") is None
        assert cache.stats.evictions == 0

    def test_put_displacement_is_counted_and_traced(self):
        sink = RingBufferSink()
        cache = AssociativeCache(1, ways=1, tracer=Tracer(sink), trace_name="TFKC")
        cache.put(b"a", 1)
        cache.put(b"a", 2)  # same key: an update, not a displacement
        assert cache.stats.evictions == 0
        cache.put(b"b", 3)
        assert cache.stats.evictions == 1
        assert [e.cache for e in sink.of_type(CacheEvicted)] == ["TFKC"]


class _CountingHash(Crc32Hash):
    """CRC-32 that counts its calls and can be told to refuse them."""

    def __init__(self, refuse: bool = False) -> None:
        self.calls = 0
        self.refuse = refuse

    def index(self, key: bytes, table_size: int) -> int:
        if self.refuse:
            raise AssertionError("a one-set cache consulted its index hash")
        self.calls += 1
        return super().index(key, table_size)


def _every_operation(cache):
    cache.put(b"a", 1)
    cache.put(b"b", 2)
    assert cache.get(b"a") == 1
    assert cache.get(b"zz") is None
    cache.invalidate(b"a")
    assert cache.evict(b"b") is True
    assert cache.evict(b"b") is False


class TestOneSetSkipsTheIndexHash:
    """With one set the index is 0 whatever the key hashes to."""

    @pytest.mark.parametrize("capacity, ways", [(4, None), (4, 4), (2, 2)])
    def test_one_set_never_calls_the_hash(self, capacity, ways):
        cache = AssociativeCache(capacity, ways, index_hash=_CountingHash(refuse=True))
        assert cache.sets == 1
        _every_operation(cache)

    def test_two_sets_still_call_it(self):
        index_hash = _CountingHash()
        cache = AssociativeCache(4, ways=2, index_hash=index_hash)
        assert cache.sets == 2
        _every_operation(cache)
        assert index_hash.calls == 7  # one per get/put/invalidate/evict

    def test_named_principal_caches_have_one_set(self):
        assert MasterKeyCache(8)._cache.sets == 1
        assert PublicValueCache(8)._cache.sets == 1
        assert FlowKeyCache(8, ways=8)._cache.sets == 1

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 5),
        ops=st.lists(
            st.tuples(st.sampled_from("gpie"), st.integers(0, 8)), max_size=60
        ),
    )
    def test_same_stats_and_victims_as_the_hashed_lookup(self, capacity, ops):
        shortcut = AssociativeCache(capacity, index_hash=_CountingHash(refuse=True))
        hashed = AssociativeCache(capacity, index_hash=Crc32Hash())
        # The parent's lookup, spelled out: hash, then modulo the one set.
        hashed._set_for = lambda key: hashed._sets[hashed._hash.index(key, hashed.sets)]
        for op, n in ops:
            key = b"flow-key-%d" % n
            for cache in (shortcut, hashed):
                if op == "g":
                    cache.get(key)
                elif op == "p":
                    cache.put(key, n)
                elif op == "i":
                    cache.invalidate(key)
                else:
                    cache.evict(key)
            # CacheStats carries the hit, miss and eviction counts.
            assert shortcut.stats == hashed.stats
            # LRU order is eviction order: the next victim is the first key.
            assert list(shortcut._sets[0]) == list(hashed._sets[0])


class TestFlowKeyCache:
    def test_install_lookup(self):
        cache = FlowKeyCache(8)
        cache.install(7, b"dest", b"src", b"\x01" * 16)
        assert cache.lookup(7, b"dest", b"src") == b"\x01" * 16

    def test_keyed_by_all_three(self):
        # (sfl, D, S) -- S included for multi-homed principals.
        cache = FlowKeyCache(64)
        cache.install(7, b"dest", b"srcA", b"\x01" * 16)
        assert cache.lookup(7, b"dest", b"srcB") is None
        assert cache.lookup(8, b"dest", b"srcA") is None
        assert cache.lookup(7, b"dst2", b"srcA") is None

    def test_flush_is_safe_soft_state(self):
        cache = FlowKeyCache(8)
        cache.install(1, b"d", b"s", b"k" * 16)
        cache.flush()
        assert cache.lookup(1, b"d", b"s") is None  # just a miss, no error


class TestMasterKeyCache:
    def test_roundtrip(self):
        cache = MasterKeyCache(4)
        cache.install(b"bob", b"\x09" * 16)
        assert cache.lookup(b"bob") == b"\x09" * 16

    def test_invalidate_on_rekey(self):
        cache = MasterKeyCache(4)
        cache.install(b"bob", b"\x09" * 16)
        cache.invalidate(b"bob")
        assert cache.lookup(b"bob") is None

    def test_lru_bounded(self):
        cache = MasterKeyCache(2)
        for name in (b"a", b"b", b"c"):
            cache.install(name, name * 8)
        assert len(cache) == 2


@pytest.mark.parametrize("cls", [MasterKeyCache, PublicValueCache])
def test_principal_caches_are_fully_associative_only(cls):
    """The MKC and PVC take a capacity and nothing else: no ``ways``,
    ``index_hash`` or ``tracer`` leaks in from the shared base."""
    cache = cls(4)
    assert cache._cache.ways == cache._cache.capacity == 4
    assert cache._cache.trace_name == cls.name
    for extra in ("ways", "index_hash", "tracer"):
        with pytest.raises(TypeError):
            cls(4, **{extra: None})


class TestPublicValueCache:
    def test_roundtrip(self):
        cache = PublicValueCache(4)
        cache.install(b"bob", "cert-object")
        assert cache.lookup(b"bob") == "cert-object"

    def test_pinning_survives_flush(self):
        # "An alternative is to pin certain certificates in the cache
        # upon initialization."
        cache = PublicValueCache(4)
        cache.pin(b"ca", "pinned-cert")
        cache.install(b"bob", "cert")
        cache.flush()
        assert cache.lookup(b"ca") == "pinned-cert"
        assert cache.lookup(b"bob") is None

    def test_pinned_beats_cached(self):
        cache = PublicValueCache(4)
        cache.install(b"x", "cached")
        cache.pin(b"x", "pinned")
        assert cache.lookup(b"x") == "pinned"
