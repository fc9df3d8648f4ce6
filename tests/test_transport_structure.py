"""Structural gate: the transport surface is what its callers use.

Plain ``ast`` over ``src/`` (no fbslint rule).  The sync calls live on
the one substrate whose event loop is the simulator
(``NetsimTransport``); nothing offers an addressed send or a re-connect
no caller makes; and the retired ICMP layer and network certificate
fetch stay retired.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
RETIRED = ("repro.netsim.icmp", "repro.core.netfetch")


def _methods(relative, cls_name):
    tree = ast.parse((SRC / relative).read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls_name]
    return {f.name for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), filename=str(path))


def test_only_the_netsim_substrate_has_a_sync_surface():
    for relative, cls in (("transport/base.py", "Transport"), ("transport/udp.py", "UdpTransport")):
        assert not {m for m in _methods(relative, cls) if m.endswith("_sync")}, cls
    assert {"send_sync", "recv_from_sync"} <= _methods("transport/netsim.py", "NetsimTransport")


def test_no_transport_defines_send_to_or_connect():
    found = [
        (relative, node.name)
        for relative, tree in _trees()
        if relative.startswith("transport/")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (node.name.startswith("send_to") or node.name == "connect")
    ]
    assert found == []


def test_no_module_imports_icmp_or_the_network_fetch():
    found = []
    for relative, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            found += [(relative, name) for name in names if name in RETIRED]
    assert found == []
