"""Security flow labels and the flow state table.

Section 5.3, "Generating the Security Flow Label": the sfl is produced
by "a large (at least 64-bit) counter ... incrementing the counter each
time an sfl is allocated.  The initial value of the counter should be
randomized to prevent attackers who try to exploit reuse of sfl values
by continuously resetting the protocol subsystem. ... sfl need not be
random, because it is fed into a one-way, pseudorandom hash function."

The flow state table (FST) follows Figure 7: a fixed-size, direct-mapped
array of entries, each holding the sfl, the policy's match key, and the
state the mapper/sweeper need (``last`` packet arrival time).  A hash
collision simply starts a new flow prematurely, which "does not affect
security" (footnote 11) -- the table is pure soft state.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.crypto.crc import CacheIndexHash, Crc32Hash

__all__ = ["SflAllocator", "FSTEntry", "FlowStateTable", "UnboundedFlowTable"]


class SflAllocator:
    """The randomized-start 64-bit sfl counter."""

    def __init__(self, seed: int = 0) -> None:
        rng = _random.Random(seed)
        self._next = rng.getrandbits(64)
        self.allocated = 0

    def allocate(self) -> int:
        """Return a fresh sfl; never repeats within a counter period."""
        sfl = self._next
        self._next = (self._next + 1) & 0xFFFFFFFFFFFFFFFF
        self.allocated += 1
        return sfl

    @property
    def next_value(self) -> int:
        """The sfl the next allocation will return (for tests)."""
        return self._next


@dataclass
class FSTEntry:
    """One slot of the flow state table (the struct FSTEntry of Figure 7).

    ``key`` is the policy-defined match key (e.g. the packed 5-tuple);
    ``last`` is the last packet arrival time; ``datagrams``/``octets``
    count the flow's traffic (what the rekeying policy budgets).
    """

    valid: bool = False
    sfl: int = 0
    key: bytes = b""
    last: float = 0.0
    datagrams: int = 0
    octets: int = 0

    def reset(self) -> None:
        """Invalidate the slot: every field back to its default."""
        self.__init__()


class _FlowTable:
    """The table body both flow tables share: slots plus statistics.
    A subclass adds only ``slot_for`` and ``size``."""

    def __init__(self, entries: List[FSTEntry]) -> None:
        self._entries = entries
        # Statistics.
        self.lookups = 0
        self.matches = 0
        self.new_flows = 0
        self.collision_evictions = 0
        self.expirations = 0

    def entry_at(self, index: int) -> FSTEntry:
        """Direct slot access (used by sweepers)."""
        return self._entries[index]

    def entries(self) -> List[FSTEntry]:
        """All slots, in index order (the sweeper's scan)."""
        return self._entries

    def occupancy(self) -> int:
        """Number of valid slots, regardless of age (table load)."""
        return sum(1 for e in self._entries if e.valid)

    def active_count(self, now: float, threshold: float) -> int:
        """Number of valid entries whose last use is within ``threshold``."""
        return sum(
            1
            for e in self._entries
            if e.valid and (now - e.last) <= threshold
        )

    def flush(self) -> None:
        """Drop all state (soft state: always safe)."""
        for entry in self._entries:
            entry.reset()


class FlowStateTable(_FlowTable):
    """A direct-mapped table of :class:`FSTEntry` slots.

    Indexing uses a pluggable hash strategy (CRC-32 by default, per the
    paper's recommendation); the strategy choice is an ablation knob.
    """

    def __init__(
        self,
        size: int,
        index_hash: Optional[CacheIndexHash] = None,
    ) -> None:
        if size < 1:
            raise ValueError("FST size must be at least 1")
        super().__init__([FSTEntry() for _ in range(size)])
        self.size = size
        self._hash = index_hash or Crc32Hash()

    def slot_for(self, key: bytes) -> int:
        """Table index for a match key."""
        return self._hash.index(key, self.size)


class UnboundedFlowTable(_FlowTable):
    """A collision-free flow table: one private slot per match key.

    The :class:`FlowStateTable` interface, but slots are allocated per
    distinct key on first sight instead of hashed into a fixed array,
    so two conversations can never evict each other.
    ``collision_evictions`` is 0 by construction.

    This is the scale-out load engine's table: with collisions gone,
    a flow's classification outcome depends only on that flow's own
    datagram times, which is what makes per-flow sharding across worker
    processes metrics-exact (see DESIGN.md "Scale-out load engine").
    Memory grows with the number of distinct keys in the workload --
    acceptable for a replay harness, not for the kernel datapath the
    paper sizes with FSTSIZE.  ``flush`` resets every entry (full
    soft-state semantics) while keeping the key->slot assignment, so a
    post-flush replay re-derives flows exactly like a cold start.
    """

    def __init__(self) -> None:
        super().__init__([])
        self._slot_of: Dict[bytes, int] = {}

    @property
    def size(self) -> int:
        """Allocated slots so far (grows with distinct keys)."""
        return len(self._entries)

    def slot_for(self, key: bytes) -> int:
        """The key's private slot, allocated on first sight."""
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self._entries)
            self._entries.append(FSTEntry())
        return slot
