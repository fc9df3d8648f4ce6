"""The key cache hierarchy: PVC, MKC, TFKC, RFKC (Section 5.3, Figure 5).

"With proper caching, the overhead of the FBS protocol can be reduced to
the bare minimum, i.e., only MAC computation and encryption."

The module has one cache organization, :class:`AssociativeCache`:
set-associative with LRU replacement inside a set, the set chosen by a
pluggable index hash (CRC-32 recommended by the paper).  The paper's
two organizations are its two ends:

* ``ways=1`` -- direct-mapped, one entry per slot.  The TFKC and RFKC
  default, since "the associativity of the caches can not be too
  great" when lookups must be O(1) in software.
* ``ways=None`` (= ``capacity``) -- fully-associative LRU.  Used for
  the MKC and PVC (small, keyed by principal).

A live cache counts hits, misses and evictions only.  Splitting misses
into the paper's three types (compulsory, capacity, collision) needs a
shadow of every key ever looked up, which unauthenticated input could
grow without bound; the split lives in its one consumer, Figure 11's
:class:`repro.traces.flowsim.CacheSimulator`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, TypeVar

from repro.crypto.crc import CacheIndexHash, Crc32Hash
from repro.crypto.secret import Secret
from repro.obs.events import CacheEvicted, CacheHit, CacheMiss
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "CacheStats",
    "AssociativeCache",
    "FlowKeyCache",
    "FlowKeyEntry",
    "MasterKeyCache",
    "PublicValueCache",
]

V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    #: Live entries displaced by an install (soft-state turnover; not a
    #: lookup outcome, so it does not enter ``lookups``/``miss_rate``).
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction over all lookups (0.0 when never used)."""
        total = self.lookups
        return self.misses / total if total else 0.0


class AssociativeCache(Generic[V]):
    """The one software cache: set-associative, LRU within a set.

    ``ways=1`` is direct-mapped (the TFKC/RFKC default); ``ways=None``
    means ``capacity`` ways, i.e. fully-associative LRU (MKC/PVC).
    """

    def __init__(
        self,
        capacity: int,
        ways: Optional[int] = None,
        index_hash: Optional[CacheIndexHash] = None,
        tracer: Optional[Tracer] = None,
        trace_name: str = "",
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if ways is None:
            ways = capacity
        if ways < 1 or ways > capacity:
            raise ValueError(f"ways must be in [1, capacity], got {ways}")
        if capacity % ways:
            raise ValueError("capacity must be a multiple of ways")
        self.capacity = capacity
        self.ways = ways
        self.sets = capacity // ways
        self._hash = index_hash or Crc32Hash()
        self._sets: List["OrderedDict[bytes, V]"] = [
            OrderedDict() for _ in range(self.sets)
        ]
        self.stats = CacheStats()
        self.tracer = tracer or NULL_TRACER
        self.trace_name = trace_name

    def _set_for(self, key: bytes) -> "OrderedDict[bytes, V]":
        if self.sets == 1:
            # One set (MKC, PVC, any cache with ways == capacity): the
            # index is 0 whatever the key hashes to.
            return self._sets[0]
        return self._sets[self._hash.index(key, self.sets)]

    def get(self, key: bytes) -> Optional[V]:
        """Lookup; updates LRU order and statistics."""
        bucket = self._set_for(key)
        hit = key in bucket
        tr = self.tracer
        if tr.enabled and self.trace_name:
            tr.emit((CacheHit if hit else CacheMiss)(cache=self.trace_name))
        if hit:
            self.stats.hits += 1
            bucket.move_to_end(key)
            return bucket[key]
        self.stats.misses += 1
        return None

    def put(self, key: bytes, value: V) -> None:
        """Install ``key``, evicting the set's LRU entry if full."""
        bucket = self._set_for(key)
        if key in bucket:
            bucket.move_to_end(key)
            bucket[key] = value
            return
        if len(bucket) >= self.ways:
            bucket.popitem(last=False)
            self._evicted()
        bucket[key] = value

    def _evicted(self) -> None:
        self.stats.evictions += 1
        tr = self.tracer
        if tr.enabled and self.trace_name:
            tr.emit(CacheEvicted(cache=self.trace_name))

    def invalidate(self, key: bytes) -> None:
        """Remove ``key`` if present."""
        self._set_for(key).pop(key, None)

    def evict(self, key: bytes) -> bool:
        """Deliberately displace ``key``; returns whether it was live.

        Unlike :meth:`invalidate` (a correctness operation: the entry is
        *wrong*), eviction is a pressure operation: the entry is valid
        but its space is wanted.  It therefore counts in
        ``stats.evictions`` and emits :class:`CacheEvicted`, exactly
        like a displacement by :meth:`put`.
        """
        bucket = self._set_for(key)
        if key not in bucket:
            return False
        del bucket[key]
        self._evicted()
        return True

    def flush(self) -> None:
        """Drop all entries (soft state)."""
        for bucket in self._sets:
            bucket.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._sets)


# ---------------------------------------------------------------------------
# The four named caches of Figure 5.
# ---------------------------------------------------------------------------


@dataclass
class FlowKeyEntry:
    """TFKC/RFKC payload: the flow key plus its derived crypto state.

    ``crypto`` carries the per-flow precomputed crypto state
    (:class:`repro.core.keying.FlowCryptoState`) when the protocol engine
    installed one; it shares the entry's lifetime, so flushing the cache
    drops the derived state too (soft-state semantics are preserved).
    """

    flow_key: Secret
    crypto: Optional[object] = None


class _NamedCache:
    """What the Figure 5 caches share: one traced :class:`AssociativeCache`."""

    def __init__(self, cache: AssociativeCache) -> None:
        self._cache = cache

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach (or replace) the event tracer for this cache."""
        self._cache.tracer = tracer

    def flush(self) -> None:
        """Drop every unpinned entry (soft state: always safe)."""
        self._cache.flush()

    def count_hit(self) -> None:
        """Count a lookup answered by an entry held beside the cache: a
        pinned certificate, or a flow key its receive batch derived and
        has not yet installed."""
        self._cache.stats.hits += 1
        tr = self._cache.tracer
        if tr.enabled:
            tr.emit(CacheHit(cache=self.name))

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)


class FlowKeyCache(_NamedCache):
    """TFKC or RFKC: flow keys indexed by (sfl, D, S).

    "This is a cache of transmission flow keys indexed by a combination
    of sfl, D and S" -- S is included "for multi-homed principals"
    (footnote 7).  Direct-mapped (``ways=1``) per the paper's
    software-cache argument; "collision misses can be avoided by
    increasing the associativity of the cache" (Section 5.3).
    """

    def __init__(
        self,
        capacity: int,
        index_hash: Optional[CacheIndexHash] = None,
        name: str = "TFKC",
        ways: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.name = name
        super().__init__(
            AssociativeCache(capacity, ways, index_hash, tracer, trace_name=name)
        )

    @staticmethod
    def _key(sfl: int, destination: bytes, source: bytes) -> bytes:
        return sfl.to_bytes(8, "big") + destination + source

    def lookup(self, sfl: int, destination: bytes, source: bytes) -> Optional[Secret]:
        """Return the cached flow key, if any."""
        entry = self._cache.get(self._key(sfl, destination, source))
        return entry.flow_key if entry is not None else None

    def lookup_entry(
        self, sfl: int, destination: bytes, source: bytes
    ) -> Optional[FlowKeyEntry]:
        """Return the whole cached entry (flow key + crypto state)."""
        return self._cache.get(self._key(sfl, destination, source))

    def install(
        self,
        sfl: int,
        destination: bytes,
        source: bytes,
        flow_key: Secret,
        crypto: Optional[object] = None,
    ) -> FlowKeyEntry:
        """Cache a freshly derived flow key (and its crypto state)."""
        entry = FlowKeyEntry(flow_key=flow_key, crypto=crypto)
        self._cache.put(self._key(sfl, destination, source), entry)
        return entry

    def evict_flow(self, sfl: int, destination: bytes, source: bytes) -> bool:
        """Reclaim one flow's entry under cache pressure (counted)."""
        return self._cache.evict(self._key(sfl, destination, source))


class MasterKeyCache(_NamedCache):
    """MKC: pair-based master keys indexed by principal name.

    "These master keys are computed using entries in the PVC and
    installed by the MKD."  Fully-associative LRU: the population is
    small (correspondent principals) and misses cost a modular
    exponentiation.
    """

    name = "MKC"

    def __init__(self, capacity: int) -> None:
        super().__init__(AssociativeCache(capacity, trace_name=self.name))

    def lookup(self, principal_id: bytes) -> Optional[Secret]:
        """Return the cached K_{S,D} for a peer, if any."""
        return self._cache.get(principal_id)

    def install(self, principal_id: bytes, master_key: Secret) -> None:
        """Cache a computed master key."""
        self._cache.put(principal_id, master_key)

    def invalidate(self, principal_id: bytes) -> None:
        """Drop a peer's master key (e.g. on private-value change)."""
        self._cache.invalidate(principal_id)

    def evict(self, principal_id: bytes) -> bool:
        """Reclaim a peer's master key under cache pressure (counted)."""
        return self._cache.evict(principal_id)


class PublicValueCache(_NamedCache):
    """PVC: public value *certificates* indexed by principal name.

    "Caching of public value certificates, instead of the public values
    themselves, is preferred because the former need not be secure; a
    certificate can be verified each time it is used."  The cache stores
    whatever certificate object the certificate substrate produces and
    leaves verification to the caller (the MKD), preserving that
    property.
    """

    name = "PVC"

    def __init__(self, capacity: int) -> None:
        super().__init__(AssociativeCache(capacity, trace_name=self.name))
        self._pinned: Dict[bytes, object] = {}

    def lookup(self, principal_id: bytes) -> Optional[object]:
        """Return the cached certificate, if any (pinned entries first)."""
        pinned = self._pinned.get(principal_id)
        if pinned is not None:
            self.count_hit()
            return pinned
        return self._cache.get(principal_id)

    def install(self, principal_id: bytes, certificate: object) -> None:
        """Cache a fetched certificate."""
        self._cache.put(principal_id, certificate)

    def pin(self, principal_id: bytes, certificate: object) -> None:
        """Pin a certificate "in the cache upon initialization"
        (the paper's alternative to the secure flow bypass)."""
        self._pinned[principal_id] = certificate

    def evict(self, principal_id: bytes) -> bool:
        """Reclaim a peer's certificate under cache pressure (counted).

        Pinned certificates are exempt: pinning exists precisely so an
        entry survives pressure.
        """
        if principal_id in self._pinned:
            return False
        return self._cache.evict(principal_id)

    def __len__(self) -> int:
        return len(self._cache) + len(self._pinned)
