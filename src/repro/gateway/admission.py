"""The admission ledger and its registry mirror.

Every admission decision is recorded twice, at the same call site: once
in a plain dictionary (the byte-stable report surface) and once in the
:class:`~repro.obs.registry.MetricsRegistry` counters from the gateway
rows of the metric catalog.  :meth:`AdmissionController.check_registry`
re-derives one from the other; the gateway bench gates on the diff
being empty, so the two views cannot drift.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.registry import MetricsRegistry

__all__ = ["AdmissionController", "DROP_REASONS", "EVICTION_REASONS"]

#: Mutually exclusive ``gateway_datagrams_dropped`` reasons: the tenant
#: table refused the peer, the tenant's bounded queue was full, or the
#: datagram was queued but its tenant was evicted before delivery.
DROP_REASONS = ("admission", "backpressure", "evicted")

#: ``gateway_tenants_evicted`` reasons (currently only table pressure).
EVICTION_REASONS = ("capacity",)


class AdmissionController:
    """Counts every admission outcome, in ledger and registry at once."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.ledger: Dict[str, object] = {
            "admitted": 0,
            "evicted": {reason: 0 for reason in EVICTION_REASONS},
            "dropped": {reason: 0 for reason in DROP_REASONS},
            "enqueued": 0,
            "delivered": 0,
        }
        self._c_admitted = registry.counter("gateway_tenants_admitted")
        self._c_evicted = {
            reason: registry.counter("gateway_tenants_evicted", reason=reason)
            for reason in EVICTION_REASONS
        }
        self._c_dropped = {
            reason: registry.counter("gateway_datagrams_dropped", reason=reason)
            for reason in DROP_REASONS
        }

    # -- outcome recording (ledger and registry move together) -----------------

    def admitted(self) -> None:
        self.ledger["admitted"] += 1
        self._c_admitted.inc()

    def evicted(self, reason: str) -> None:
        self.ledger["evicted"][reason] += 1
        self._c_evicted[reason].inc()

    def dropped(self, reason: str, n: int = 1) -> None:
        self.ledger["dropped"][reason] += n
        self._c_dropped[reason].inc(n)

    def enqueued(self) -> None:
        self.ledger["enqueued"] += 1

    def delivered(self, n: int = 1) -> None:
        self.ledger["delivered"] += n

    # -- reporting -------------------------------------------------------------

    def ledger_dict(self) -> Dict[str, object]:
        """A deep copy of the ledger, safe to serialize (its bytes are
        checked by ``tests/test_report_determinism.py``)."""
        return {
            "admitted": self.ledger["admitted"],
            "evicted": dict(self.ledger["evicted"]),
            "dropped": dict(self.ledger["dropped"]),
            "enqueued": self.ledger["enqueued"],
            "delivered": self.ledger["delivered"],
        }

    def check_registry(self) -> List[str]:
        """Ledger-vs-registry discrepancies (empty = exactly consistent).

        ``enqueued`` must equal the endpoint's ``datagrams_accepted``:
        backpressure sheds load *before* protocol processing, so every
        datagram the endpoint accepts is enqueued, and nothing else is.
        """
        problems: List[str] = []
        reg = self.registry

        def expect(label: str, ledger_value: int, counter_value: int) -> None:
            if ledger_value != counter_value:
                problems.append(
                    f"{label}: ledger {ledger_value} != registry {counter_value}"
                )

        expect(
            "admitted",
            self.ledger["admitted"],
            reg.sum_counter("gateway_tenants_admitted"),
        )
        for reason in EVICTION_REASONS:
            expect(
                f"evicted[{reason}]",
                self.ledger["evicted"][reason],
                reg.counter("gateway_tenants_evicted", reason=reason).value,
            )
        for reason in DROP_REASONS:
            expect(
                f"dropped[{reason}]",
                self.ledger["dropped"][reason],
                reg.counter("gateway_datagrams_dropped", reason=reason).value,
            )
        expect(
            "enqueued",
            self.ledger["enqueued"],
            reg.sum_counter("datagrams_accepted"),
        )
        return problems
