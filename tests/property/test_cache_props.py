"""Property-based tests on cache and flow-table invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.caches import AssociativeCache
from repro.core.fam import DatagramAttributes
from repro.core.flows import FlowStateTable, SflAllocator
from repro.core.policy import FiveTuplePolicy
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.traces.flowsim import CacheSimulator
from repro.traces.records import PacketRecord, Trace

keys = st.binary(min_size=1, max_size=16)


class TestCacheInvariants:
    @given(
        operations=st.lists(
            st.tuples(keys, st.integers(min_value=0, max_value=1000)), max_size=60
        ),
        capacity=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_direct_mapped_get_returns_last_put_or_none(self, operations, capacity):
        cache = AssociativeCache(capacity, ways=1)
        last_value = {}
        for key, value in operations:
            cache.put(key, value)
            last_value[key] = value
        for key, expected in last_value.items():
            got = cache.get(key)
            assert got is None or got == expected

    @given(
        operations=st.lists(
            st.tuples(keys, st.integers(min_value=0, max_value=1000)), max_size=60
        ),
        capacity=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50, deadline=None)
    def test_associative_never_exceeds_capacity(self, operations, capacity):
        cache = AssociativeCache(capacity)
        for key, value in operations:
            cache.put(key, value)
            assert len(cache) <= capacity

    @given(
        lookups=st.lists(keys, min_size=1, max_size=100),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_miss_accounting_balances(self, lookups, capacity):
        cache = AssociativeCache(capacity, ways=1)
        for key in lookups:
            if cache.get(key) is None:
                cache.put(key, True)
        stats = cache.stats
        assert stats.hits + stats.misses == len(lookups)

    @given(
        flows=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=100),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_simulated_cold_misses_are_first_touches(self, flows, capacity):
        sender = IPAddress("10.0.0.1")
        trace = Trace(
            PacketRecord(float(t), FiveTuple(17, sender, 1000 + f, IPAddress("10.0.0.2"), 53), 0)
            for t, f in enumerate(flows)
        )
        stats = CacheSimulator(capacity).send_side(trace, sender)
        assert stats.hits + stats.misses == len(flows)
        assert stats.cold_misses == len(set(flows))  # first touch of each flow


def five_tuples():
    return st.builds(
        FiveTuple,
        proto=st.sampled_from([6, 17]),
        saddr=st.integers(min_value=1, max_value=2**32 - 1).map(IPAddress),
        sport=st.integers(min_value=1, max_value=65535),
        daddr=st.integers(min_value=1, max_value=2**32 - 1).map(IPAddress),
        dport=st.integers(min_value=1, max_value=65535),
    )


class TestPolicyInvariants:
    @given(
        events=st.lists(
            st.tuples(five_tuples(), st.floats(min_value=0, max_value=1e5)),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_classification_always_valid_and_sfls_unique_per_flow_start(self, events):
        fst = FlowStateTable(64)
        alloc = SflAllocator(seed=9)
        policy = FiveTuplePolicy(threshold=600.0)
        events = sorted(events, key=lambda e: e[1])
        seen_sfls = []
        for ft, t in events:
            attrs = DatagramAttributes(
                destination_id=ft.daddr.to_bytes(), five_tuple=ft, size=10
            )
            entry = policy.classify(attrs, t, fst, alloc)
            assert entry.valid
            assert entry.key == ft.pack()
            seen_sfls.append(entry.sfl)
        # sfl allocation never repeats: distinct flow starts, distinct sfls.
        assert alloc.allocated == fst.new_flows

    @given(
        tuple_=five_tuples(),
        gaps=st.lists(
            st.floats(min_value=0.01, max_value=2000.0), min_size=1, max_size=40
        ),
        threshold=st.floats(min_value=1.0, max_value=1000.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_flow_splits_iff_gap_exceeds_threshold(self, tuple_, gaps, threshold):
        fst = FlowStateTable(64)
        alloc = SflAllocator(seed=3)
        policy = FiveTuplePolicy(threshold=threshold)
        attrs = DatagramAttributes(
            destination_id=tuple_.daddr.to_bytes(), five_tuple=tuple_, size=1
        )
        from hypothesis import assume

        # Accumulated float arithmetic makes gap == threshold ambiguous;
        # stay away from the boundary.
        assume(all(abs(gap - threshold) > 1e-6 * max(gap, threshold) for gap in gaps))
        t = 0.0
        expected_flows = 1
        policy.classify(attrs, t, fst, alloc)
        for gap in gaps:
            previous = t
            t += gap
            policy.classify(attrs, t, fst, alloc)
            if t - previous > threshold:
                expected_flows += 1
        assert alloc.allocated == expected_flows
        assert policy.repeated_flows == expected_flows - 1
