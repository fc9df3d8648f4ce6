"""Structural gate: a tenant's eviction is written once, in the server.

Reclaiming an evicted tenant's key-cache footprint had one caller,
``FBSGateway._admit``, and is now the private ``_evict_coldest`` beside
it.  Replace, don't fork: no ``repro.gateway.eviction`` module and no
exported reclamation helper to call beside the serve loop.
"""

import importlib

import pytest

import repro.gateway


def test_the_eviction_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.gateway.eviction")


def test_no_reclamation_helper_is_exported():
    assert "evict_tenant_footprint" not in repro.gateway.__all__
    assert not hasattr(repro.gateway, "evict_tenant_footprint")
