"""The admission outcomes, counted once, on the gateway endpoint's registry.

Every admission decision bumps one counter from the gateway rows of the
metric catalog; :meth:`AdmissionController.ledger_dict` is a read of
those counters (plus the endpoint's ``datagrams_accepted``, which is
what "enqueued" means), and :meth:`AdmissionController.check_registry`
checks the one conservation law they must obey.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.obs.registry import MetricsRegistry

__all__ = ["AdmissionController", "DROP_REASONS", "EVICTION_REASONS"]

#: Mutually exclusive ``gateway_datagrams_dropped`` reasons: the tenant's
#: bounded queue was full, the datagram was queued but its tenant was
#: evicted before delivery, or the resolver knows no peer at its source
#: address (nothing admitted, evicted or computed).
DROP_REASONS = ("backpressure", "evicted", "unknown_peer")

#: ``gateway_tenants_evicted`` reasons (currently only table pressure).
EVICTION_REASONS = ("capacity",)


class AdmissionController:
    """Counts every admission outcome on ``registry``.

    ``queued`` reports the bodies the tenant queues hold right now (the
    gateway passes its table's ``total_queued``).
    """

    def __init__(self, registry: MetricsRegistry, queued: Callable[[], int]) -> None:
        self._queued = queued
        #: Bodies handed out by ``drain``; no counter holds it.
        self._delivered = 0
        self._c_admitted = registry.counter("gateway_tenants_admitted")
        self._c_evicted = {
            reason: registry.counter("gateway_tenants_evicted", reason=reason)
            for reason in EVICTION_REASONS
        }
        self._c_dropped = {
            reason: registry.counter("gateway_datagrams_dropped", reason=reason)
            for reason in DROP_REASONS
        }
        # Every datagram the gateway endpoint accepts is enqueued:
        # backpressure sheds before protocol processing.
        self._c_enqueued = registry.counter("datagrams_accepted")

    # -- outcome recording -----------------------------------------------------

    def admitted(self) -> None:
        self._c_admitted.inc()

    def evicted(self, reason: str) -> None:
        self._c_evicted[reason].inc()

    def dropped(self, reason: str, n: int = 1) -> None:
        self._c_dropped[reason].inc(n)

    def delivered(self, n: int = 1) -> None:
        self._delivered += n

    # -- reporting -------------------------------------------------------------

    def ledger_dict(self) -> Dict[str, object]:
        """The admission ledger, read from the registry (its bytes are
        checked by ``tests/test_report_determinism.py``)."""
        return {
            "admitted": self._c_admitted.value,
            "evicted": {r: c.value for r, c in self._c_evicted.items()},
            "dropped": {r: c.value for r, c in self._c_dropped.items()},
            "enqueued": self._c_enqueued.value,
            "delivered": self._delivered,
        }

    def check_registry(self) -> List[str]:
        """Violations of ``enqueued == delivered + queued +
        dropped[evicted]`` (empty = balanced): every accepted body is
        delivered, still queued, or was lost with its evicted tenant."""
        ledger = self.ledger_dict()
        queued = self._queued()
        evicted = ledger["dropped"]["evicted"]  # type: ignore[index]
        if ledger["enqueued"] == ledger["delivered"] + queued + evicted:
            return []
        return [
            f"enqueued {ledger['enqueued']} != delivered {ledger['delivered']} "
            f"+ queued {queued} + dropped[evicted] {evicted}"
        ]
