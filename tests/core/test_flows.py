"""Sfl allocator and flow state table tests."""

import pytest

from repro.core.flows import FlowStateTable, FSTEntry, SflAllocator, UnboundedFlowTable
from repro.crypto.crc import ModuloHash


class TestSflAllocator:
    def test_monotone_increments(self):
        alloc = SflAllocator(seed=1)
        a, b, c = alloc.allocate(), alloc.allocate(), alloc.allocate()
        assert b == (a + 1) & 0xFFFFFFFFFFFFFFFF
        assert c == (b + 1) & 0xFFFFFFFFFFFFFFFF

    def test_randomized_start(self):
        # Different seeds (protocol restarts) start in different places,
        # preventing sfl reuse across resets.
        assert SflAllocator(seed=1).allocate() != SflAllocator(seed=2).allocate()

    def test_start_not_zero_typically(self):
        assert SflAllocator(seed=3).allocate() != 0

    def test_64_bit_range(self):
        alloc = SflAllocator(seed=4)
        for _ in range(10):
            assert 0 <= alloc.allocate() < 2**64

    def test_counter_statistics(self):
        alloc = SflAllocator(seed=5)
        for _ in range(7):
            alloc.allocate()
        assert alloc.allocated == 7

    def test_wraparound(self):
        alloc = SflAllocator(seed=6)
        alloc._next = 2**64 - 1
        assert alloc.allocate() == 2**64 - 1
        assert alloc.allocate() == 0


class TestFSTEntry:
    def test_reset_clears_everything(self):
        entry = FSTEntry(valid=True, sfl=9, key=b"k", last=5.0, datagrams=3, octets=99)
        entry.reset()
        assert entry == FSTEntry()


class TestFlowStateTable:
    def test_slot_deterministic(self):
        fst = FlowStateTable(32)
        assert fst.slot_for(b"abc") == fst.slot_for(b"abc")
        assert 0 <= fst.slot_for(b"abc") < 32

    def test_entries_are_stable_objects(self):
        fst = FlowStateTable(8)
        entry = fst.entry_at(3)
        entry.valid = True
        entry.sfl = 42
        assert fst.entry_at(3).sfl == 42

    def test_active_count(self):
        fst = FlowStateTable(8)
        for i, last in enumerate((0.0, 100.0, 190.0)):
            entry = fst.entry_at(i)
            entry.valid = True
            entry.last = last
        assert fst.active_count(now=200.0, threshold=50.0) == 1
        assert fst.active_count(now=200.0, threshold=120.0) == 2
        assert fst.active_count(now=200.0, threshold=500.0) == 3

    def test_flush(self):
        fst = FlowStateTable(4)
        for entry in fst.entries():
            entry.valid = True
        fst.flush()
        assert all(not e.valid for e in fst.entries())

    def test_size_validation(self):
        with pytest.raises(ValueError):
            FlowStateTable(0)

    def test_custom_hash_strategy(self):
        fst = FlowStateTable(16, index_hash=ModuloHash())
        assert fst.slot_for((16).to_bytes(8, "big")) == 0


class TestUnboundedFlowTable:
    def test_private_slot_per_key(self):
        fst = UnboundedFlowTable()
        keys = [i.to_bytes(8, "big") for i in range(100)]
        slots = [fst.slot_for(k) for k in keys]
        assert slots == list(range(100))  # allocation order, no reuse
        assert [fst.slot_for(k) for k in keys] == slots  # stable
        assert fst.size == 100

    def test_no_collision_evictions_by_construction(self):
        # The FlowStateTable property the load engine relies on: keys
        # that would collide in any fixed-size table stay disjoint here.
        fst = UnboundedFlowTable()
        for i in range(1000):
            fst.slot_for(i.to_bytes(8, "big"))
        assert fst.collision_evictions == 0
        assert len({fst.slot_for(i.to_bytes(8, "big")) for i in range(1000)}) == 1000

    def test_entry_state_survives_per_slot(self):
        fst = UnboundedFlowTable()
        slot = fst.slot_for(b"conversation")
        entry = fst.entry_at(slot)
        entry.valid = True
        entry.sfl = 7
        assert fst.entry_at(fst.slot_for(b"conversation")).sfl == 7
        assert fst.occupancy() == 1

    def test_flush_resets_entries_but_keeps_assignment(self):
        fst = UnboundedFlowTable()
        slot = fst.slot_for(b"a")
        fst.entry_at(slot).valid = True
        fst.flush()
        assert not fst.entry_at(slot).valid
        assert fst.slot_for(b"a") == slot  # same slot after flush
        assert fst.occupancy() == 0

    def test_active_count(self):
        fst = UnboundedFlowTable()
        for i, last in enumerate((0.0, 100.0, 190.0)):
            entry = fst.entry_at(fst.slot_for(bytes([i])))
            entry.valid = True
            entry.last = last
        assert fst.active_count(now=200.0, threshold=50.0) == 1
        assert fst.active_count(now=200.0, threshold=500.0) == 3
