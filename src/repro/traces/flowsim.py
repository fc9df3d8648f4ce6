"""The "flow simulation programs" of Section 7.3.

Three simulators over a packet trace:

* :class:`ExactFlowSimulator` -- per-5-tuple bookkeeping with THRESHOLD
  expiry, producing the definitive flow log (what the policy *means*);
  feeds Figures 9, 10, 12, 13, 14.
* :class:`TableFlowSimulator` -- the same policy through a real
  fixed-size, hash-indexed :class:`~repro.core.flows.FlowStateTable`
  (what the kernel *does*), exposing collision effects; feeds the FST
  sizing ablation.
* :class:`CacheSimulator` -- replays a trace against TFKC/RFKC key
  caches of a given size and index hash from one host's viewpoint;
  feeds Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.caches import CacheStats, FlowKeyCache
from repro.core.fam import DatagramAttributes
from repro.core.flows import FlowStateTable, SflAllocator
from repro.core.policy import FiveTuplePolicy
from repro.crypto.crc import CacheIndexHash, Crc32Hash
from repro.netsim.addresses import FiveTuple, IPAddress
from repro.obs import Sink, Tracer
from repro.traces.records import PacketRecord, Trace

__all__ = ["FlowRecord", "ExactFlowSimulator", "TableFlowSimulator", "CacheSimulator"]


@dataclass
class FlowRecord:
    """One completed (or trace-end-truncated) flow."""

    five_tuple: FiveTuple
    sfl: int
    start: float
    end: float
    packets: int
    octets: int
    #: 0 for the first flow on this 5-tuple, 1 for the next, ... --
    #: values >= 1 are "repeated flows" in Figure 14's sense.
    incarnation: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _OpenFlow:
    sfl: int
    start: float
    last: float
    packets: int = 0
    octets: int = 0
    incarnation: int = 0


class ExactFlowSimulator:
    """Ideal per-conversation tracking of the Section 7.1 policy.

    A flow is a maximal run of same-5-tuple datagrams with successive
    gaps <= THRESHOLD.  Unlike the kernel's fixed table, this simulator
    never suffers hash collisions, so its output is the ground truth the
    paper's flow-characteristic figures describe.
    """

    def __init__(self, threshold: float = 600.0) -> None:
        if threshold <= 0:
            raise ValueError("THRESHOLD must be positive")
        self.threshold = threshold

    def run(self, trace: Trace) -> List[FlowRecord]:
        """Replay ``trace``; returns the complete flow log."""
        open_flows: Dict[bytes, _OpenFlow] = {}
        incarnations: Dict[bytes, int] = {}
        log: List[FlowRecord] = []
        next_sfl = 0

        def close(key: bytes, flow: _OpenFlow) -> None:
            log.append(
                FlowRecord(
                    five_tuple=FiveTuple.unpack(key),
                    sfl=flow.sfl,
                    start=flow.start,
                    end=flow.last,
                    packets=flow.packets,
                    octets=flow.octets,
                    incarnation=flow.incarnation,
                )
            )

        for record in trace:
            key = record.five_tuple.pack()
            flow = open_flows.get(key)
            if flow is not None and record.time - flow.last > self.threshold:
                close(key, flow)
                flow = None
            if flow is None:
                incarnation = incarnations.get(key, 0)
                incarnations[key] = incarnation + 1
                flow = _OpenFlow(
                    sfl=next_sfl,
                    start=record.time,
                    last=record.time,
                    incarnation=incarnation,
                )
                next_sfl += 1
                open_flows[key] = flow
            flow.last = record.time
            flow.packets += 1
            flow.octets += record.size

        for key, flow in open_flows.items():
            close(key, flow)
        log.sort(key=lambda f: f.start)
        return log


class TableFlowSimulator:
    """The kernel's view: the policy through a real fixed-size FST."""

    def __init__(
        self,
        threshold: float = 600.0,
        fst_size: int = 64,
        index_hash: Optional[CacheIndexHash] = None,
        sfl_seed: int = 0,
    ) -> None:
        self.policy = FiveTuplePolicy(threshold=threshold)
        self.fst = FlowStateTable(fst_size, index_hash=index_hash or Crc32Hash())
        self.allocator = SflAllocator(seed=sfl_seed)

    def run(self, trace: Trace) -> Dict[str, int]:
        """Replay ``trace``; returns summary counters."""
        for record in trace:
            attributes = DatagramAttributes(
                destination_id=record.five_tuple.daddr.to_bytes(),
                five_tuple=record.five_tuple,
                size=record.size,
            )
            self.policy.classify(attributes, record.time, self.fst, self.allocator)
        return {
            "lookups": self.fst.lookups,
            "matches": self.fst.matches,
            "new_flows": self.fst.new_flows,
            "collision_evictions": self.fst.collision_evictions,
            "repeated_flows": self.policy.repeated_flows,
        }


class CacheSimulator:
    """Key cache behaviour from one host's viewpoint (Figure 11).

    Send-side: every datagram the host originates looks up its flow key
    in a TFKC keyed by (sfl, D, S); the sfl comes from exact flow
    tracking (big-table assumption, isolating *cache* behaviour from FST
    collisions, as the paper's cache figures do).

    Receive-side: symmetric, with the RFKC keyed by (sfl, S, D) over the
    datagrams the host receives.

    With a ``sink``, every lookup also emits ``CacheHit``/``CacheMiss``/
    ``CacheEvicted`` events stamped with the *trace* clock (the replayed
    record's timestamp); ``label`` suffixes the cache name in the events
    (e.g. ``label="[32]"`` yields ``TFKC[32]``) so one trace file can
    carry a whole cache-size sweep.
    """

    def __init__(
        self,
        cache_size: int,
        threshold: float = 600.0,
        index_hash: Optional[CacheIndexHash] = None,
        ways: int = 1,
        sink: Optional[Sink] = None,
        label: str = "",
    ) -> None:
        self.cache_size = cache_size
        self.threshold = threshold
        self._hash = index_hash or Crc32Hash()
        self.ways = ways
        self.sink = sink
        self.label = label

    def _replay(
        self, trace: Trace, viewpoint: IPAddress, receive_side: bool
    ) -> CacheStats:
        clock = [0.0]
        tracer = (
            Tracer(self.sink, now=lambda: clock[0])
            if self.sink is not None
            else None
        )
        cache = FlowKeyCache(
            self.cache_size,
            index_hash=self._hash,
            name=("RFKC" if receive_side else "TFKC") + self.label,
            ways=self.ways,
            tracer=tracer,
        )
        # Exact flow tracking to assign sfls.
        open_flows: Dict[bytes, Tuple[int, float]] = {}
        next_sfl = 0
        sub = (
            trace.filter_receiver(viewpoint)
            if receive_side
            else trace.filter_sender(viewpoint)
        )
        for record in sub:
            clock[0] = record.time
            key = record.five_tuple.pack()
            entry = open_flows.get(key)
            if entry is None or record.time - entry[1] > self.threshold:
                sfl = next_sfl
                next_sfl += 1
            else:
                sfl = entry[0]
            open_flows[key] = (sfl, record.time)
            dst = record.five_tuple.daddr.to_bytes()
            src = record.five_tuple.saddr.to_bytes()
            if cache.lookup(sfl, dst, src) is None:
                cache.install(sfl, dst, src, b"\x00" * 16)
        return cache.stats

    def send_side(self, trace: Trace, viewpoint: IPAddress) -> CacheStats:
        """TFKC statistics for datagrams ``viewpoint`` sends."""
        return self._replay(trace, viewpoint, receive_side=False)

    def receive_side(self, trace: Trace, viewpoint: IPAddress) -> CacheStats:
        """RFKC statistics for datagrams ``viewpoint`` receives."""
        return self._replay(trace, viewpoint, receive_side=True)
