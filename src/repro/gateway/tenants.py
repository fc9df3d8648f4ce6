"""Tenant state: who the gateway is currently serving.

A *tenant* is one remote peer the gateway has admitted: a principal, a
transport address to answer, a bounded delivery queue, and the set of
flow labels (sfl) seen from it.  The flow set is what makes eviction
cache-pressure-aware: it is exactly the index needed to reclaim the
tenant's TFKC/RFKC entries when the table turns the tenant out.

The table is LRU by last activity.  "Cold" therefore means the same
thing it means one layer down in the key caches: least recently used,
first reclaimed -- the gateway applies the paper's soft-state argument
at tenant granularity.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set, Tuple

from repro.core.keying import Principal

__all__ = ["GatewayConfig", "TenantState", "TenantTable"]

#: A transport-level peer address token (see ``Transport.recv_from``).
Address = Tuple[str, int]


@dataclass(frozen=True)
class GatewayConfig:
    """Operator-facing knobs of the multi-tenant gateway.

    Every field is documented in docs/DEPLOYMENT.md (a docs-sync check
    keeps that reference complete).
    """

    #: Tenant table capacity.  Admission beyond it evicts the coldest
    #: tenant, reclaiming its key-cache footprint.
    max_tenants: int = 8
    #: Bounded per-tenant delivery queue, in datagrams.  Arrivals beyond
    #: it are dropped with reason ``backpressure`` and counted -- never
    #: queued without bound.
    queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise ValueError("max_tenants must be at least 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")


class TenantState:
    """One admitted peer: identity, queue, flows, accounting."""

    __slots__ = (
        "name",
        "principal",
        "addr",
        "queue",
        "flows",
        "enqueued",
        "delivered",
        "dropped",
    )

    def __init__(self, name: str, principal: Principal, addr: Address) -> None:
        self.name = name
        self.principal = principal
        self.addr = addr
        self.queue: Deque[bytes] = deque()
        self.flows: Set[int] = set()
        self.enqueued = 0
        self.delivered = 0
        self.dropped = 0

    def summary(self) -> dict:
        """Report row (sorted keys; no addresses, no key material)."""
        return {
            "delivered": self.delivered,
            "dropped": self.dropped,
            "enqueued": self.enqueued,
            "flows": len(self.flows),
            "queued": len(self.queue),
        }


class TenantTable:
    """Bounded LRU table of admitted tenants, keyed by peer address."""

    def __init__(self) -> None:
        self._by_addr: "OrderedDict[Address, TenantState]" = OrderedDict()

    def get(self, addr: Address) -> Optional[TenantState]:
        """Lookup by address; a hit refreshes the tenant's LRU position."""
        tenant = self._by_addr.get(addr)
        if tenant is not None:
            self._by_addr.move_to_end(addr)
        return tenant

    def admit(self, tenant: TenantState) -> None:
        self._by_addr[tenant.addr] = tenant

    def coldest(self) -> TenantState:
        """The least recently active tenant (next eviction victim)."""
        addr = next(iter(self._by_addr))
        return self._by_addr[addr]

    def remove(self, addr: Address) -> TenantState:
        return self._by_addr.pop(addr)

    def total_queued(self) -> int:
        return sum(len(t.queue) for t in self._by_addr.values())

    def by_name(self) -> List[TenantState]:
        """Tenants in stable name order (report iteration; the bytes are
        checked by ``tests/test_report_determinism.py``)."""
        return sorted(self._by_addr.values(), key=lambda t: t.name)

    def __len__(self) -> int:
        return len(self._by_addr)

    def __contains__(self, addr: Address) -> bool:
        return addr in self._by_addr
