"""Structural gate: the IP security-module body is written once.

Plain ``ast`` over ``src/`` (no fbslint rule), in the style of
``test_soft_state_structure.py``: one class under ``repro.baselines``
seals, opens and counts; one function prices crypto beyond the generic
path; one site builds a master key daemon; the attack code asks a
scheme for its layout instead of knowing byte offsets.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BASELINES = SRC / "baselines"
HOOK_COUNTERS = {"inbound_rejected", "inbound_accepted", "outbound_protected"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _calls(tree, name):
    """Calls of ``name`` or ``<anything>.name``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name
        == (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", None)
        )
    ]


def _attribute_names(node):
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def test_only_the_sealed_body_and_the_passthrough_define_the_hooks():
    defining = {
        path.name
        for path in BASELINES.glob("*.py")
        for func in _functions(_tree(path))
        if func.name in ("outbound", "inbound")
    }
    assert defining == {"sealed.py", "generic.py"}


def test_no_private_bypass_or_charge_copy_survives():
    leftovers = [
        (path.name, func.name)
        for path in BASELINES.glob("*.py")
        for func in _functions(_tree(path))
        if func.name in ("_is_bypass", "_charge")
    ]
    assert leftovers == []
    mapping = _tree(SRC / "core" / "ip_mapping.py")
    assert [f.name for f in _functions(mapping) if "bypass" in f.name] == ["is_bypass"]


def test_one_class_verifies_the_mac_and_bumps_the_hook_counters():
    mac_checks = []
    counting = set()
    for path in BASELINES.glob("*.py"):
        tree = _tree(path)
        mac_checks += [path.name] * len(_calls(tree, "constant_time_equal"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.AugAssign) and (
                    _attribute_names(node.target) & HOOK_COUNTERS
                ):
                    counting.add((path.name, cls.name))
    assert mac_checks == ["sealed.py"]
    assert counting == {("sealed.py", "SealedDatagramModule")}


def test_one_function_prices_crypto_beyond_the_generic_path():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for func in _functions(_tree(path)):
            names = _attribute_names(func)
            if "fbs_crypto" in names and names & {"generic_send", "generic_receive"}:
                if any(
                    isinstance(op, ast.BinOp) and isinstance(op.op, ast.Sub)
                    for op in ast.walk(func)
                ):
                    sites.append((path.relative_to(SRC).as_posix(), func.name))
    assert sites == [("netsim/costmodel.py", "crypto_extra")]


def test_one_site_builds_a_master_key_daemon_in_deploy():
    deploy = _tree(SRC / "core" / "deploy.py")
    assert len(_calls(deploy, "MasterKeyDaemon")) == 1


def test_attacks_do_not_know_byte_offsets():
    literal_bounds = []
    for name in ("compromise.py", "cutpaste.py"):
        for node in ast.walk(_tree(SRC / "attacks" / name)):
            if not isinstance(node, ast.Slice):
                continue
            for bound in (node.lower, node.upper):
                if isinstance(bound, ast.Constant) and isinstance(bound.value, int):
                    literal_bounds.append((name, bound.lineno, bound.value))
    assert literal_bounds == []
