"""The one gateway site (``repro.gateway.site.build_site``) on netsim,
driven in lockstep from synchronous tests: ``send_protected`` then
``serve_one``.
"""

import asyncio

from repro.gateway.site import build_site


def gateway_site(tenants=3, **options):
    """A ready-to-serve netsim site (netsim's async surface completes inline)."""
    return asyncio.run(build_site("netsim", tenants, **options))


def send_protected(site, tenant, body=b"hello", raw=None):
    """Protect ``body`` as ``tenant`` on its first flow (or take ``raw``)
    and put it on the wire."""
    site.transports[tenant].send_sync(site.protect(tenant, body) if raw is None else raw)


def serve_one(site, timeout=5.0):
    """One gateway serve step."""
    return asyncio.run(site.gateway.serve_once(timeout))
