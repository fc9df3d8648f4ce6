"""Structural gate: each soft-state mechanism is written once.

Plain ``ast`` over ``src/`` (no fbslint rule): the Figure 7 mapper
counters are bumped at one site each, all in ``core/policy.py``; one
class carries the flow-table body; one class is a cache.
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
