"""Structural gate: the gateway's eviction and its site are written once.

Reclaiming an evicted tenant's key-cache footprint had one caller,
``FBSGateway._admit``, and is now the private ``_evict_coldest`` beside
it.  Replace, don't fork: no ``repro.gateway.eviction`` module and no
exported reclamation helper to call beside the serve loop.

The multi-tenant site (gateway endpoint, enrolled tenants, their
transports, the resolver, ``FBSGateway``) is assembled by
``repro.gateway.site.build_site`` alone, on either substrate: the CLI
only drives it, and no test builds one by hand (plain ``ast``, in the
style of ``test_crypto_structure.py``).
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.gateway
import repro.gateway.cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: What a site's wire is opened with, and what makes it a gateway's.
#: (A test may still attach one ``NetsimTransport`` station to a built
#: site's network: a stranger is not a site.)
SUBSTRATE_CALLS = {"Network", "UdpTransport.create"}
GATEWAY_NAMES = {"FBSGateway", "GatewayConfig", "build_site", "gateway_site"}


def _called(node):
    """``f`` for ``f(...)``, ``a.f`` for ``a.f(...)``, else None."""
    func = node.func if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _calls(tree):
    return [name for node in ast.walk(tree) if (name := _called(node))]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_the_eviction_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.gateway.eviction")


def test_no_reclamation_helper_is_exported():
    assert "evict_tenant_footprint" not in repro.gateway.__all__
    assert not hasattr(repro.gateway, "evict_tenant_footprint")


def test_src_constructs_the_gateway_once_in_the_site():
    sites = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for name in _calls(_parse(path))
        if name == "FBSGateway"
    ]
    assert sites == ["gateway/site.py"]


def test_the_cli_only_drives_the_site():
    assert not hasattr(repro.gateway.cli, "_open_netsim")
    assert not hasattr(repro.gateway.cli, "_open_udp")
    calls = set(_calls(_parse(SRC / "gateway" / "cli.py")))
    built = SUBSTRATE_CALLS | {"NetsimTransport", "FBSGateway", "FBSDomain"}
    assert calls & built == set()


def site_assemblies(tree):
    """Functions that call ``FBSGateway`` or open a substrate beside a
    gateway name: a gateway site built by hand."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = set(_calls(func))
        names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        if "FBSGateway" in calls or (calls & SUBSTRATE_CALLS and names & GATEWAY_NAMES):
            found.append(func.name)
    return found


def test_no_test_assembles_a_gateway_site():
    assembled = {
        path.relative_to(ROOT).as_posix(): found
        for path in sorted((ROOT / "tests").rglob("*.py"))
        if (found := site_assemblies(_parse(path)))
    }
    assert assembled == {}


@pytest.mark.parametrize(
    "planted",
    [
        "def site():\n    return FBSGateway(endpoint, transport, resolver=directory.get)\n",
        "async def site():\n    gw = await UdpTransport.create()\n"
        "    return build_site, gw\n",
        "def site(seed):\n    net = Network(seed=seed)\n"
        "    return net, GatewayConfig(max_tenants=2)\n",
    ],
    ids=["gateway", "udp-graft", "netsim-graft"],
)
def test_the_site_gate_sees_a_hand_built_site(planted):
    assert site_assemblies(ast.parse(planted)) == ["site"]
