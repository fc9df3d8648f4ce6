"""Structural gate: each soft-state mechanism is written once.

Plain ``ast`` over ``src/`` (no fbslint rule): the Figure 7 mapper
counters are bumped at one site each, all in ``core/policy.py``; one
class carries the flow-table body; one class is a cache, and it keeps
no shadow of the keys it saw (the miss-type split is Figure 11's
simulator's); the receive path writes the RFKC at one site, after the
MAC comparison.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MAPPER_COUNTERS = ("matches", "new_flows", "collision_evictions")
TABLE_BODY = {"entry_at", "entries", "occupancy", "active_count", "flush"}


def _counter_updates():
    """(file, counter) for every store to a mapper counter except ``= 0``."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                if isinstance(node.value, ast.Constant) and node.value.value == 0:
                    continue  # the table's own zero-initialisation
                targets = node.targets
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr in MAPPER_COUNTERS:
                        yield path.relative_to(SRC).as_posix(), sub.attr


def _classes_defining(relative, names):
    tree = ast.parse((SRC / relative).read_text())
    return [
        cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and names <= {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
    ]


def test_mapper_counters_have_one_site_each_in_policy():
    assert sorted(_counter_updates()) == sorted(
        ("core/policy.py", counter) for counter in MAPPER_COUNTERS
    )


def test_one_class_carries_the_flow_table_body():
    assert _classes_defining("core/flows.py", TABLE_BODY) == ["_FlowTable"]
    for method in TABLE_BODY:
        assert len(_classes_defining("core/flows.py", {method})) == 1, method


def test_one_class_is_a_cache():
    assert _classes_defining("core/caches.py", {"get", "put"}) == ["AssociativeCache"]


def _tree(relative):
    return ast.parse((SRC / relative).read_text())


def _calls(tree, name):
    """Calls of ``name`` or of a method ``name``, with their enclosing function."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func
                called = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                if called == name:
                    yield func.name, node


def test_the_live_caches_keep_no_shadow():
    # The sets are the only ordered dictionaries, and nothing remembers
    # a key once it has left them.
    tree = _tree("core/caches.py")
    assert [func for func, _ in _calls(tree, "OrderedDict")] == ["__init__"]
    assert not [func for func, _ in _calls(tree, "set")]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {name for name in names if "classif" in name.lower() or "seen" in name}


def test_miss_kinds_live_in_the_figure_11_simulator_only():
    defined = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "MissKind"
    ]
    assert defined == ["traces/flowsim.py"]


def test_the_rfkc_is_written_at_one_site_after_the_mac_comparison():
    tree = _tree("core/protocol.py")
    installs = [(func, ast.unparse(call.func.value), call.lineno)
                for func, call in _calls(tree, "install")]  # fmt: skip
    assert sorted(receiver for _, receiver, _ in installs) == ["self.rfkc", "self.tfkc"]
    [(func, _, line)] = [site for site in installs if site[1] == "self.rfkc"]
    compares = [call.lineno for f, call in _calls(tree, "constant_time_equal") if f == func]
    assert func == "unprotect_batch" and compares and line > max(compares)
