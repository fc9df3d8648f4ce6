"""Async multi-tenant FBS gateway: many peers, one protected ingress.

The protocol engine (:class:`~repro.core.protocol.FBSEndpoint`) and the
transport substrate (:class:`~repro.transport.base.Transport`) are both
point-to-point abstractions; this package composes them into the shape
an operator actually deploys: one gateway endpoint terminating FBS for
*many* remote peers over a single unconnected datagram socket.

The pieces, in datapath order:

* :mod:`repro.gateway.tenants` -- who is talking: the bounded tenant
  table with per-tenant bounded delivery queues.
* :mod:`repro.gateway.admission` -- whether they may: the admission
  ledger, mirrored one-for-one onto registry counters.
* :mod:`repro.gateway.eviction` -- what leaves when the table is full:
  cache-pressure-aware reclamation of a cold tenant's footprint across
  all four key caches (PVC/MKC/TFKC/RFKC).
* :mod:`repro.gateway.server` -- the serve loop tying them together
  over any transport's addressed (``recv_from``) surface.
* :mod:`repro.gateway.cli` -- ``python -m repro.gateway``: the seeded
  multi-tenant workload with byte-stable JSON reports, shardable with
  the :class:`~repro.load.sharding.FlowSharder`.

First contact needs no handshake: admission creates the tenant entry,
and the tenant's first protected datagram then drives the existing
zero-message keying path (RFKC miss -> MKC miss -> PVC -> master key)
exactly as it would between two fixed endpoints.
"""

from repro.gateway.admission import AdmissionController
from repro.gateway.eviction import evict_tenant_footprint
from repro.gateway.server import FBSGateway
from repro.gateway.tenants import GatewayConfig, TenantState, TenantTable

__all__ = [
    "AdmissionController",
    "FBSGateway",
    "GatewayConfig",
    "TenantState",
    "TenantTable",
    "evict_tenant_footprint",
]
