"""Deterministic flow sharding: which worker owns which flow.

The scale-out rule is the classic one (Snort/NIC RSS style): partition
traffic *by flow*, never by packet, so all per-flow soft state -- the
FST entry, the flow key, the crypto state -- lives in exactly one
worker process and no state is ever shared or migrated.

The shard function must be

* **stable across processes** -- Python's builtin ``hash`` is
  randomized per process (PYTHONHASHSEED), so we use the repo's own
  CRC-32 over the canonical packed 5-tuple, the same randomizing hash
  the paper recommends for its caches (Section 5.3);
* **independent of arrival order** -- it reads nothing but the
  5-tuple, so any worker can recompute any datagram's owner;
* **total** -- every datagram of a flow lands on the same worker for
  *any* worker count (property-tested in ``tests/load``).
"""

from __future__ import annotations

from typing import Iterable, List

from repro.crypto.crc import Crc32Hash
from repro.netsim.addresses import FiveTuple
from repro.traces.records import PacketRecord

__all__ = ["FlowSharder"]


class FlowSharder:
    """Maps 5-tuples to worker indices with a stable CRC-32 hash."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self._hash = Crc32Hash()

    def shard_of(self, five_tuple: FiveTuple) -> int:
        """The owning worker index for a flow, in ``[0, workers)``."""
        return self._hash.index(five_tuple.pack(), self.workers)

    def filter_shard(
        self, records: Iterable[PacketRecord], worker: int
    ) -> List[PacketRecord]:
        """The sub-stream a worker owns, original order preserved."""
        if not 0 <= worker < self.workers:
            raise ValueError(f"worker {worker} out of range 0..{self.workers - 1}")
        shard_of = self.shard_of
        return [r for r in records if shard_of(r.five_tuple) == worker]

