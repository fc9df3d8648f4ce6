"""Security flow policy modules.

Policies are mapper/sweeper pairs plugged into the FAM.  The Figure 7
mapper -- match, THRESHOLD-expire, collision-evict, start a flow -- is
written once, in :class:`KeyedMapper`; a policy is that mapper plus a
*key function* saying which datagram attributes name a flow:

* :class:`KeyedMapper` -- the mapper itself, under the default key
  ``DatagramAttributes.policy_key()``: Section 7.1's IP policy.
* :class:`FiveTuplePolicy` -- the paper's implemented policy (Figure 7):
  a flow is "a sequence of datagrams of the same transport layer
  protocol going from a port on a host to another port on another host
  such that the datagrams do not arrive more than THRESHOLD apart."
* :class:`HostLevelPolicy` -- one flow per destination principal; what
  raw IP (ICMP/IGMP) degenerates to ("raw IP can be considered as
  host-level flows", footnote 10), and the closest FBS gets to SKIP-style
  host keying.
* :class:`PerDatagramPolicy` -- a fresh flow per datagram: the
  degenerate lower bound showing what per-datagram keying costs
  (ablation use).
* :class:`RekeyingPolicy` -- wraps another policy and rotates the sfl
  after a byte/datagram budget: "rekeying can be easily accomplished via
  the FAM by changing the sfl.  Rekeying decisions, though, are made by
  policy modules" (Section 5.2).
* :class:`ThresholdSweeper` -- the Figure 7 sweeper: invalidate entries
  idle longer than THRESHOLD.

This module is the only place that counts ``matches``/``new_flows``/
``collision_evictions`` on a flow table or fills an ``FSTEntry``
(``tests/test_soft_state_structure.py`` holds that).
"""

from __future__ import annotations

from typing import Optional

from repro.core.fam import DatagramAttributes
from repro.core.flows import FlowStateTable, FSTEntry, SflAllocator

__all__ = [
    "KeyedMapper",
    "FiveTuplePolicy",
    "ThresholdSweeper",
    "HostLevelPolicy",
    "PerDatagramPolicy",
    "RekeyingPolicy",
]


class KeyedMapper:
    """The Figure 7 mapper, with the THRESHOLD check folded in.

    Section 7.2 combines mapper and key-cache activity check: "If the
    indexed entry is 'active' (last use is less than THRESHOLD ago), it
    uses the stored flow key.  Otherwise, it begins a new flow ...  The
    job of the sweeper module also becomes implicit as it is absorbed
    into the mapping phase."  ``threshold=None`` never expires a flow in
    the mapper: the plain Figure 7 mapper that relies on an explicit
    sweeper instead (the split design of Section 5.1) -- the ablation
    bench compares the two.  Subclasses override :meth:`key`.
    """

    def __init__(self, threshold: Optional[float] = 600.0) -> None:
        if threshold is not None and threshold <= 0:
            raise ValueError("THRESHOLD must be positive")
        self.threshold = threshold
        #: Flows that reused a match key after expiry (Figure 14's metric).
        self.repeated_flows = 0

    def key(self, attributes: DatagramAttributes) -> bytes:
        """The match key: which attributes name this datagram's flow."""
        return attributes.policy_key()

    def classify(
        self,
        attributes: DatagramAttributes,
        now: float,
        fst: FlowStateTable,
        allocator: SflAllocator,
    ) -> FSTEntry:
        key = self.key(attributes)
        entry = fst.entry_at(fst.slot_for(key))
        fst.lookups += 1

        if entry.valid and entry.key == key:
            if self.threshold is None or now - entry.last <= self.threshold:
                fst.matches += 1
                entry.last = now
                entry.datagrams += 1
                entry.octets += attributes.size
                return entry
            # Same key, but the previous flow has gone idle past
            # THRESHOLD: a *repeated flow* (new sfl, same conversation
            # key) -- the quantity Figure 14 studies.
            self.repeated_flows += 1
        elif entry.valid:
            # Different conversation hashed to the same slot: collision
            # eviction, which "can prematurely terminate a flow [but]
            # does not affect security" (footnote 11).
            fst.collision_evictions += 1
        return start_flow(entry, key, attributes, now, fst, allocator)


def start_flow(
    entry: FSTEntry,
    key: bytes,
    attributes: DatagramAttributes,
    now: float,
    fst: FlowStateTable,
    allocator: SflAllocator,
) -> FSTEntry:
    """Figure 7's last step: a new flow, under a fresh sfl, in ``entry``."""
    fst.new_flows += 1
    entry.valid = True
    entry.sfl = allocator.allocate()
    entry.key = key
    entry.last = now
    entry.datagrams = 1
    entry.octets = attributes.size
    return entry


class FiveTuplePolicy(KeyedMapper):
    """The paper's implemented policy: one flow per 5-tuple conversation."""

    def key(self, attributes: DatagramAttributes) -> bytes:
        if attributes.five_tuple is None:
            raise ValueError("FiveTuplePolicy requires a five_tuple attribute")
        return attributes.five_tuple.pack()


class HostLevelPolicy(KeyedMapper):
    """One flow per destination principal (host-level granularity)."""

    def key(self, attributes: DatagramAttributes) -> bytes:
        return attributes.destination_id


class ThresholdSweeper:
    """The Figure 7 sweeper: expire entries idle past THRESHOLD."""

    def __init__(self, threshold: float = 600.0) -> None:
        if threshold <= 0:
            raise ValueError("THRESHOLD must be positive")
        self.threshold = threshold

    def sweep(self, fst: FlowStateTable, now: float) -> int:
        swept = 0
        for entry in fst.entries():
            if entry.valid and (now - entry.last) > self.threshold:
                entry.reset()
                fst.expirations += 1
                swept += 1
        return swept


class PerDatagramPolicy:
    """A fresh flow (and key) for every datagram -- the degenerate case.

    Turns FBS into per-datagram keying; exists to quantify what the flow
    abstraction saves (every datagram pays a flow-key derivation).
    """

    def classify(
        self,
        attributes: DatagramAttributes,
        now: float,
        fst: FlowStateTable,
        allocator: SflAllocator,
    ) -> FSTEntry:
        key = attributes.policy_key()
        entry = fst.entry_at(fst.slot_for(key))
        fst.lookups += 1
        return start_flow(entry, key, attributes, now, fst, allocator)


class RekeyingPolicy:
    """Wrap a policy; rotate the sfl after a byte or datagram budget.

    The wear-out guard of Section 5.2.  ``after_bytes``/``after_datagrams``
    of 0 disable the respective limit.
    """

    def __init__(self, inner, after_bytes: int = 0, after_datagrams: int = 0) -> None:
        if after_bytes < 0 or after_datagrams < 0:
            raise ValueError("rekey budgets must be non-negative")
        if not after_bytes and not after_datagrams:
            raise ValueError("RekeyingPolicy needs at least one budget")
        self.inner = inner
        self.after_bytes = after_bytes
        self.after_datagrams = after_datagrams
        self.rekeys = 0

    def classify(
        self,
        attributes: DatagramAttributes,
        now: float,
        fst: FlowStateTable,
        allocator: SflAllocator,
    ) -> FSTEntry:
        entry = self.inner.classify(attributes, now, fst, allocator)
        over_bytes = self.after_bytes and entry.octets > self.after_bytes
        over_count = self.after_datagrams and entry.datagrams > self.after_datagrams
        if over_bytes or over_count:
            # Rekey by changing the sfl; the zero-message keying
            # machinery derives a new flow key automatically.
            self.rekeys += 1
            start_flow(entry, entry.key, attributes, now, fst, allocator)
        return entry
