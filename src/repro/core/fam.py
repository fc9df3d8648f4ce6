"""The Flow Association Mechanism (FAM) of Figure 1.

"The output of the flow association mechanism is an opaque flow
identifier, called security flow label (sfl), which feeds into the
zero-message keying mechanism to produce the per-flow key."

Structure per Figure 1:

* a **flow state table** holding per-flow state,
* a **mapper module** mapping datagram attributes to a table index and
  deciding whether the indexed entry's flow applies or a new flow must
  be started, and
* a **sweeper module** expiring flows that are no longer active.

Both modules are *policy plug-ins*: "the desired security is encoded in
the mapper and sweeper modules.  Depending on the policy, a mapper, or a
sweeper or both may be needed."  The FAM is stateful but the state is
purely local -- "no state synchronization is needed between the source
and destination principals."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol

from repro.core.flows import FlowStateTable, FSTEntry, SflAllocator
from repro.netsim.addresses import FiveTuple
from repro.obs.events import FlowStarted
from repro.obs.tracer import NULL_TRACER

__all__ = ["DatagramAttributes", "Mapper", "Sweeper", "FlowAssociationMechanism"]


@dataclass
class DatagramAttributes:
    """The attribute set handed to the mapper (the FAM(P, ...) inputs).

    "This takes as input a set of attributes (e.g., destination
    principal address) of a datagram and possibly other system
    parameters (e.g., process id, time)".  ``five_tuple`` covers the
    network-layer policy of Figure 7; ``destination_id`` is the peer
    principal; ``extra`` carries anything else a custom policy wants
    (process id, user id, application tag, ...).
    """

    destination_id: bytes
    five_tuple: Optional[FiveTuple] = None
    size: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def policy_key(self) -> bytes:
        """Default match key: the packed 5-tuple when available, else
        the destination principal id."""
        if self.five_tuple is not None:
            return self.five_tuple.pack()
        return self.destination_id


class Mapper(Protocol):
    """Mapper plug-in: attributes -> flow (possibly starting a new one)."""

    def classify(
        self,
        attributes: DatagramAttributes,
        now: float,
        fst: FlowStateTable,
        allocator: SflAllocator,
    ) -> FSTEntry:
        """Return the (valid) FST entry for this datagram's flow."""
        ...


class Sweeper(Protocol):
    """Sweeper plug-in: expire flows that are no longer active."""

    def sweep(self, fst: FlowStateTable, now: float) -> int:
        """Scan the table, invalidating dead flows; returns count swept."""
        ...


class FlowAssociationMechanism:
    """The FAM: FST + mapper + sweeper, producing sfls for datagrams."""

    def __init__(
        self,
        mapper: Mapper,
        fst: Optional[FlowStateTable] = None,
        fst_size: int = 64,
        sfl_seed: int = 0,
    ) -> None:
        self.mapper = mapper
        #: Installed by :meth:`configure_sweeper`; none by default.
        self.sweeper: Optional[Sweeper] = None
        self.fst = fst if fst is not None else FlowStateTable(fst_size)
        self.allocator = SflAllocator(seed=sfl_seed)
        self._last_sweep = 0.0
        #: Event tracer; the owning protocol engine replaces this with
        #: its own so flow starts land in the endpoint's trace.
        self.tracer = NULL_TRACER

    def classify(self, attributes: DatagramAttributes, now: float) -> FSTEntry:
        """FAM(P, ...): classify one datagram into a flow.

        Runs the sweeper first if its interval has elapsed (the paper's
        sweeper "operates by scanning the entries in the flow state
        table"; scanning on a period rather than per-packet keeps the
        per-datagram cost O(1)).
        """
        if self.sweeper is not None and now - self._last_sweep >= self._sweep_interval:
            self.sweeper.sweep(self.fst, now)
            self._last_sweep = now
        entry = self.mapper.classify(attributes, now, self.fst, self.allocator)
        if not entry.valid:
            raise RuntimeError("mapper returned an invalid FST entry")
        if entry.datagrams == 1:
            tr = self.tracer
            if tr.enabled:
                tr.emit(FlowStarted(sfl=entry.sfl))
        return entry

    def configure_sweeper(
        self, sweeper: Optional[Sweeper], sweep_interval: float
    ) -> None:
        """Install (or remove, with ``None``) the sweeper: the one way a
        FAM gets one.

        Fault-injection campaigns use this to race aggressive sweeping
        against live traffic; the next :meth:`classify` whose ``now`` is
        at least ``sweep_interval`` past the last sweep runs it.
        """
        if sweep_interval <= 0:
            raise ValueError("sweep interval must be positive")
        self.sweeper = sweeper
        self._sweep_interval = sweep_interval

    def active_flows(self, now: float, threshold: float) -> int:
        """Flows seen within ``threshold`` (the Figure 12/13 metric)."""
        return self.fst.active_count(now, threshold)

    def flush(self) -> None:
        """Drop all flow state (soft state; restarts flows, never breaks
        correctness)."""
        self.fst.flush()
