"""Async multi-tenant FBS gateway: many peers, one protected ingress.

The protocol engine (:class:`~repro.core.protocol.FBSEndpoint`) and the
transport substrate (:class:`~repro.transport.base.Transport`) are both
point-to-point abstractions; this package composes them into the shape
an operator actually deploys: one gateway endpoint terminating FBS for
*many* remote peers over a single unconnected datagram socket.

The pieces, in datapath order:

* :mod:`repro.gateway.tenants` -- who is talking: the bounded tenant
  table with per-tenant bounded delivery queues.
* :mod:`repro.gateway.admission` -- whether they may: each admission
  outcome counted once on the endpoint's registry, and the ledger read
  from it.
* :mod:`repro.gateway.server` -- the serve loop tying them together
  over any transport's addressed (``recv_from``) surface; a full table
  evicts its coldest tenant with that tenant's footprint across all
  four key caches (PVC/MKC/TFKC/RFKC).
* :mod:`repro.gateway.site` -- the one builder of the whole site
  (gateway, enrolled tenants, their transports) on netsim or UDP.
* :mod:`repro.gateway.cli` -- ``python -m repro.gateway``: the seeded
  multi-tenant workload over that site, with byte-stable JSON reports.

First contact needs no handshake: a peer's first protected datagram
drives the existing zero-message keying path (RFKC miss -> MKC miss ->
PVC -> master key) exactly as it would between two fixed endpoints, and
admission creates the tenant entry only once that datagram is accepted,
so a datagram that fails the MAC admits and evicts nothing.
"""

from repro.gateway.admission import AdmissionController
from repro.gateway.server import FBSGateway
from repro.gateway.tenants import GatewayConfig, TenantState, TenantTable

__all__ = [
    "AdmissionController",
    "FBSGateway",
    "GatewayConfig",
    "TenantState",
    "TenantTable",
]
