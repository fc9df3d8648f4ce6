"""Policy module tests: Figure 7's 5-tuple policy and friends."""

import pytest

from repro.core.fam import DatagramAttributes
from repro.core.flows import FlowStateTable, SflAllocator
from repro.core.policy import (
    FiveTuplePolicy,
    HostLevelPolicy,
    PerDatagramPolicy,
    RekeyingPolicy,
    ThresholdSweeper,
)
from repro.netsim.addresses import FiveTuple, IPAddress


def make_attrs(sport=1000, dport=23, daddr="10.0.0.2", proto=6, size=100):
    ft = FiveTuple(
        proto=proto,
        saddr=IPAddress("10.0.0.1"),
        sport=sport,
        daddr=IPAddress(daddr),
        dport=dport,
    )
    return DatagramAttributes(
        destination_id=ft.daddr.to_bytes(), five_tuple=ft, size=size
    )


@pytest.fixture
def env():
    return FlowStateTable(64), SflAllocator(seed=1)


class TestFiveTuplePolicy:
    def test_same_tuple_same_flow(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy(threshold=600.0)
        e1 = policy.classify(make_attrs(), 0.0, fst, alloc)
        e2 = policy.classify(make_attrs(), 10.0, fst, alloc)
        assert e1.sfl == e2.sfl
        assert e2.datagrams == 2
        assert e2.octets == 200

    def test_different_tuple_different_flow(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy()
        e1 = policy.classify(make_attrs(sport=1000), 0.0, fst, alloc)
        e2 = policy.classify(make_attrs(sport=1001), 0.0, fst, alloc)
        assert e1.sfl != e2.sfl

    def test_threshold_expiry_starts_new_flow(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy(threshold=600.0)
        e1 = policy.classify(make_attrs(), 0.0, fst, alloc)
        first_sfl = e1.sfl
        e2 = policy.classify(make_attrs(), 601.0, fst, alloc)
        assert e2.sfl != first_sfl
        assert policy.repeated_flows == 1

    def test_within_threshold_keeps_flow(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy(threshold=600.0)
        e1 = policy.classify(make_attrs(), 0.0, fst, alloc)
        e2 = policy.classify(make_attrs(), 599.0, fst, alloc)
        assert e1.sfl == e2.sfl
        assert policy.repeated_flows == 0

    def test_threshold_measured_between_consecutive_datagrams(self, env):
        # A long flow stays alive as long as gaps stay under THRESHOLD.
        fst, alloc = env
        policy = FiveTuplePolicy(threshold=600.0)
        sfl = policy.classify(make_attrs(), 0.0, fst, alloc).sfl
        for t in (500.0, 1000.0, 1500.0, 2000.0):
            assert policy.classify(make_attrs(), t, fst, alloc).sfl == sfl

    def test_collision_eviction_counted(self):
        fst = FlowStateTable(1)  # everything collides
        alloc = SflAllocator(seed=2)
        policy = FiveTuplePolicy()
        policy.classify(make_attrs(sport=1), 0.0, fst, alloc)
        policy.classify(make_attrs(sport=2), 0.0, fst, alloc)
        assert fst.collision_evictions == 1
        # Collision restarts the first conversation's flow on return --
        # premature termination, but "does not affect security".
        e = policy.classify(make_attrs(sport=1), 0.0, fst, alloc)
        assert e.valid and fst.new_flows == 3

    def test_requires_five_tuple(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy()
        attrs = DatagramAttributes(destination_id=b"\x0a\x00\x00\x02")
        with pytest.raises(ValueError):
            policy.classify(attrs, 0.0, fst, alloc)

    def test_no_threshold_check_variant(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy(threshold=None)
        e1 = policy.classify(make_attrs(), 0.0, fst, alloc)
        # Without the inline check (split design), the stale entry is
        # reused until a sweeper clears it.
        e2 = policy.classify(make_attrs(), 10_000.0, fst, alloc)
        assert e1.sfl == e2.sfl

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            FiveTuplePolicy(threshold=0)


class TestThresholdSweeper:
    def test_sweeps_idle_entries(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy(threshold=None)
        sweeper = ThresholdSweeper(threshold=600.0)
        policy.classify(make_attrs(sport=1), 0.0, fst, alloc)
        policy.classify(make_attrs(sport=2), 500.0, fst, alloc)
        swept = sweeper.sweep(fst, 700.0)
        assert swept == 1
        assert fst.expirations == 1

    def test_active_entries_survive(self, env):
        fst, alloc = env
        policy = FiveTuplePolicy(threshold=None)
        sweeper = ThresholdSweeper(threshold=600.0)
        entry = policy.classify(make_attrs(), 100.0, fst, alloc)
        sweeper.sweep(fst, 300.0)
        assert entry.valid


class TestHostLevelPolicy:
    def test_one_flow_per_destination(self, env):
        fst, alloc = env
        policy = HostLevelPolicy()
        e1 = policy.classify(make_attrs(sport=1, dport=23), 0.0, fst, alloc)
        e2 = policy.classify(make_attrs(sport=9, dport=99), 1.0, fst, alloc)
        assert e1.sfl == e2.sfl  # same destination host, same flow

    def test_different_hosts_different_flows(self, env):
        fst, alloc = env
        policy = HostLevelPolicy()
        e1 = policy.classify(make_attrs(daddr="10.0.0.2"), 0.0, fst, alloc)
        e2 = policy.classify(make_attrs(daddr="10.0.0.3"), 0.0, fst, alloc)
        assert e1.sfl != e2.sfl

    def test_works_without_five_tuple(self, env):
        fst, alloc = env
        policy = HostLevelPolicy()
        attrs = DatagramAttributes(destination_id=b"\x0a\x00\x00\x02", size=40)
        entry = policy.classify(attrs, 0.0, fst, alloc)
        assert entry.valid

    def test_optional_threshold(self, env):
        fst, alloc = env
        policy = HostLevelPolicy(threshold=100.0)
        first_sfl = policy.classify(make_attrs(), 0.0, fst, alloc).sfl
        e2 = policy.classify(make_attrs(), 200.0, fst, alloc)
        assert e2.sfl != first_sfl
        assert policy.repeated_flows == 1


class TestPerDatagramPolicy:
    def test_every_datagram_new_flow(self, env):
        fst, alloc = env
        policy = PerDatagramPolicy()
        sfls = {policy.classify(make_attrs(), float(t), fst, alloc).sfl for t in range(10)}
        assert len(sfls) == 10


class TestRekeyingPolicy:
    def test_rekeys_after_datagram_budget(self, env):
        fst, alloc = env
        policy = RekeyingPolicy(FiveTuplePolicy(), after_datagrams=3)
        sfls = [policy.classify(make_attrs(), float(t), fst, alloc).sfl for t in range(8)]
        assert sfls[0] == sfls[1] == sfls[2]
        assert sfls[3] != sfls[2]  # rekeyed on the 4th datagram
        assert policy.rekeys >= 1

    def test_rekeys_after_byte_budget(self, env):
        fst, alloc = env
        policy = RekeyingPolicy(FiveTuplePolicy(), after_bytes=250)
        e1 = policy.classify(make_attrs(size=100), 0.0, fst, alloc)
        first = e1.sfl
        policy.classify(make_attrs(size=100), 1.0, fst, alloc)
        e3 = policy.classify(make_attrs(size=100), 2.0, fst, alloc)
        assert e3.sfl != first

    def test_requires_a_budget(self):
        with pytest.raises(ValueError):
            RekeyingPolicy(FiveTuplePolicy())

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RekeyingPolicy(FiveTuplePolicy(), after_bytes=-1)

