"""The gateway serve loop: one endpoint, many peers, one socket.

:class:`FBSGateway` receives on a transport's addressed surface
(``recv_from``), attributes each datagram to a tenant by its source
address, and runs the backpressure -> unprotect -> admission pipeline:

* a new peer is admitted on its first verified datagram: the datagram
  is unprotected under the principal its address resolves to, with
  zero-message keying and no handshake round trip, and only if it is
  accepted does the peer become a tenant (evicting the coldest tenant
  and its key-cache footprint when the table is full), so bytes that
  fail the MAC admit and evict nothing; an address the resolver does
  not know is dropped (reason ``unknown_peer``) before any crypto;
* a full per-tenant queue sheds the datagram *before* any protocol
  processing (drop reason ``backpressure``) -- crypto work is never
  spent on bytes that cannot be delivered;
* everything that passes is unprotected by the shared endpoint and
  appended to the tenant's bounded queue; only such an accepted
  datagram makes its tenant the most recently active.

Every outcome is a short ``"verb"`` or ``"verb:reason"`` string so
tests and the CLI can ledger results without re-deriving them from
counters.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.keying import Principal
from repro.core.protocol import FBSEndpoint
from repro.gateway.admission import AdmissionController
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
        protect its traffic (the CLI's is directory-backed); it raises
        :class:`LookupError` for an address it does not know.
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
        ``"dropped:unknown_peer"``, or ``"rejected:<reason>"`` with the
        endpoint's mutually exclusive rejection reasons.
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
        tenant = self.tenants.get(addr)
        if tenant is not None:
            principal, queued = tenant.principal, len(tenant.queue)
        else:
            try:
                principal, queued = self.resolver(addr), 0
            except LookupError:
                self.admission.dropped("unknown_peer")
                return "dropped:unknown_peer"
        if queued >= self.config.queue_depth:
            # Shed before unprotect: no crypto for undeliverable bytes.
            if tenant is not None:
                tenant.dropped += 1
            self.admission.dropped("backpressure")
            return "dropped:backpressure"
        result = self.endpoint.unprotect_batch((payload,), principal)
        reason = result.reasons[0]
        if reason is not None:
            return f"rejected:{reason}"
        if tenant is None:
            tenant = self._admit(addr, principal)
        else:
            # Only a verified datagram refreshes: a spoofer of the
            # address must not choose who is evicted next.
            self.tenants.touch(addr)
        tenant.flows.add(result.headers[0].sfl)
        tenant.queue.append(result.bodies[0])
        tenant.enqueued += 1
        return "enqueued"

    # -- admission -------------------------------------------------------------

    def _admit(self, addr: Address, principal: Principal) -> TenantState:
        """Make a verified peer a tenant, turning the coldest out first
        when the table is full."""
        if len(self.tenants) >= self.config.max_tenants:
            self._evict_coldest()
        tenant = TenantState(name=principal.name, principal=principal, addr=addr)
        self.tenants.admit(tenant)
        self.admission.admitted()
        tr = self.endpoint.tracer
        if tr.enabled:
            tr.emit(TenantAdmitted(peer=tenant.name))
        return tenant

    def _evict_coldest(self) -> None:
        """Turn the coldest tenant out with its key-cache footprint.

        Its flow keys (by the flow labels seen from it), master key and
        certificate leave the RFKC/TFKC/MKC/PVC through the caches'
        counted ``evict`` paths, so ``cache_evictions`` and
        ``CacheEvicted`` tell the whole story.  Flows are walked in
        sorted order so the event sequence is deterministic.  Soft
        state makes this always safe: a returning tenant re-keys
        through the miss path.
        """
        cold = self.tenants.coldest()
        if cold.queue:
            # Accepted but never delivered: account before discarding.
            self.admission.dropped("evicted", len(cold.queue))
        endpoint = self.endpoint
        peer, me = cold.principal.wire_id, endpoint.principal.wire_id
        for sfl in sorted(cold.flows):
            # Receive side keys by (sfl, local, remote); send side mirrors.
            endpoint.rfkc.evict_flow(sfl, me, peer)
            endpoint.tfkc.evict_flow(sfl, peer, me)
        endpoint.mkd.mkc.evict(peer)
        endpoint.mkd.pvc.evict(peer)
        self.tenants.remove(cold.addr)
        self.admission.evicted("capacity")
        tr = endpoint.tracer
        if tr.enabled:
            tr.emit(TenantEvicted(peer=cold.name, reason="capacity"))

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
