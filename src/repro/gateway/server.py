"""The gateway serve loop: one endpoint, many peers, one socket.

:class:`FBSGateway` receives on a transport's addressed surface
(``recv_from``), attributes each datagram to a tenant by its source
address, and runs the admission -> backpressure -> unprotect pipeline:

* unknown peers are admitted on first contact (evicting the coldest
  tenant's key-cache footprint when the table is full), so the very
  first protected datagram drives zero-message keying with no
  handshake round trip;
* a full per-tenant queue sheds the datagram *before* any protocol
  processing (drop reason ``backpressure``) -- crypto work is never
  spent on bytes that cannot be delivered;
* everything that passes is unprotected by the shared endpoint and
  appended to the tenant's bounded queue.

Every outcome is a short ``"verb"`` or ``"verb:reason"`` string so
tests and the CLI can ledger results without re-deriving them from
counters.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.keying import Principal
from repro.core.protocol import FBSEndpoint
from repro.gateway.admission import AdmissionController
from repro.gateway.eviction import evict_tenant_footprint
from repro.gateway.tenants import Address, GatewayConfig, TenantState, TenantTable
from repro.obs.events import TenantAdmitted, TenantEvicted
from repro.transport.base import Transport

__all__ = ["FBSGateway"]


class FBSGateway:
    """Demultiplexes one transport's datagrams into per-tenant queues.

    Parameters
    ----------
    endpoint:
        The shared protocol engine.  Its registry also carries the
        gateway's admission counters and occupancy gauges, so one
        snapshot shows the whole ingress.
    transport:
        Any transport with an addressed surface (``recv_from``).
    config:
        Table and queue bounds; defaults are test-sized.
    resolver:
        Maps a peer address to the enrolled :class:`Principal` whose keys
        protect its traffic (the CLI's is directory-backed).
    """

    def __init__(
        self,
        endpoint: FBSEndpoint,
        transport: Transport,
        config: Optional[GatewayConfig] = None,
        *,
        resolver: Callable[[Address], Principal],
    ) -> None:
        self.endpoint = endpoint
        self.transport = transport
        self.config = config or GatewayConfig()
        self.resolver = resolver
        self.tenants = TenantTable()
        self.admission = AdmissionController(
            endpoint.registry, self.tenants.total_queued
        )
        registry = endpoint.registry
        gauge_tenants = registry.gauge("gateway_active_tenants")
        gauge_depth = registry.gauge("gateway_queue_depth")

        def collect() -> None:
            gauge_tenants.set(float(len(self.tenants)))
            gauge_depth.set(float(self.tenants.total_queued()))

        registry.register_collector(collect)

    # -- datapath --------------------------------------------------------------

    async def serve_once(self, timeout: float) -> Optional[str]:
        """Receive and process one datagram; None when the wire stays
        idle for ``timeout`` seconds (0: poll).

        Returns the outcome: ``"enqueued"``, ``"dropped:backpressure"``,
        or ``"rejected:<reason>"`` with the endpoint's mutually exclusive
        rejection reasons.
        """
        arrival = await self.transport.recv_from(timeout)
        if arrival is None:
            return None
        payload, addr = arrival
        return self._process(payload, addr)

    async def serve_ready(self, limit: int) -> List[str]:
        """Process up to ``limit`` datagrams the transport already holds.

        One outcome per datagram, in arrival order; returns as soon as
        the transport has nothing queued -- it never waits to fill.
        """
        outcomes: List[str] = []
        while len(outcomes) < limit:
            outcome = await self.serve_once(0)
            if outcome is None:
                break
            outcomes.append(outcome)
        return outcomes

    def _process(self, payload: bytes, addr: Address) -> str:
        tenant = self.tenants.get(addr) or self._admit(addr)
        if len(tenant.queue) >= self.config.queue_depth:
            # Shed before unprotect: no crypto for undeliverable bytes.
            tenant.dropped += 1
            self.admission.dropped("backpressure")
            return "dropped:backpressure"
        result = self.endpoint.unprotect_batch((payload,), tenant.principal)
        reason = result.reasons[0]
        if reason is not None:
            return f"rejected:{reason}"
        tenant.flows.add(result.headers[0].sfl)
        tenant.queue.append(result.bodies[0])
        tenant.enqueued += 1
        return "enqueued"

    # -- admission -------------------------------------------------------------

    def _admit(self, addr: Address) -> TenantState:
        if len(self.tenants) >= self.config.max_tenants:
            cold = self.tenants.coldest()
            if cold.queue:
                # Accepted but never delivered: account before discarding.
                self.admission.dropped("evicted", len(cold.queue))
            evict_tenant_footprint(self.endpoint, cold)
            self.tenants.remove(cold.addr)
            self.admission.evicted("capacity")
            tr = self.endpoint.tracer
            if tr.enabled:
                tr.emit(TenantEvicted(peer=cold.name, reason="capacity"))
        principal = self.resolver(addr)
        tenant = TenantState(name=principal.name, principal=principal, addr=addr)
        self.tenants.admit(tenant)
        self.admission.admitted()
        tr = self.endpoint.tracer
        if tr.enabled:
            tr.emit(TenantAdmitted(peer=tenant.name))
        return tenant

    # -- delivery --------------------------------------------------------------

    def drain(self) -> "dict":
        """Move every queued body out, per tenant name (stable order)."""
        delivered = {}
        for tenant in self.tenants.by_name():
            bodies = list(tenant.queue)
            tenant.queue.clear()
            tenant.delivered += len(bodies)
            self.admission.delivered(len(bodies))
            delivered[tenant.name] = bodies
        return delivered
