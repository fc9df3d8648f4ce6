"""Repo policy, by plain ``ast`` over ``src/`` and ``tests/``: no
``assert`` in ``src/repro`` (it vanishes under ``python -O``); no bare
``except:`` and no ``except Exception``/``BaseException`` whose body only
passes, continues or is ``...`` (a swallowed failure is an invisible
one); no process fan-out anywhere in ``src/`` (soft state and trace
sinks are not fork-safe, and every replay runs in process, DESIGN.md
section 10).  Each finder also runs over its
``tests/policy_fixtures/fbs00N_bad.py`` negative control and ``_ok.py``
twin.  Two more rules of the same kind close the file: every JSON dump
in ``src/repro`` sorts its keys, and the blocking-call audit hook is
defined once and shared."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "policy_fixtures"


def asserts(node):
    return isinstance(node, ast.Assert)


def swallowed(node):
    return isinstance(node, ast.ExceptHandler) and (
        node.type is None
        or ast.unparse(node.type) in ("Exception", "BaseException")
        and all(ast.unparse(stmt) in ("pass", "continue", "...") for stmt in node.body)
    )


def fan_out(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "multiprocessing" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "multiprocessing" or any(
            alias.name == "ProcessPoolExecutor" for alias in node.names
        )
    if isinstance(node, ast.Call):
        target = ast.unparse(node.func)
        return target in ("os.fork", "os.forkpty") or target.endswith("ProcessPoolExecutor")
    return False


#: finder -> (does the policy cover this repo path, its fixture, the
#: paths its bad and ok fixtures stand in for, where the bad one fails).
POLICY = {
    asserts: (lambda path: path.startswith("src/repro/"), "fbs004", ("src/repro/x.py",) * 2, ["12:5"]),
    swallowed: (lambda path: True, "fbs007", ("src/repro/x.py",) * 2, ["11:9", "18:9", "26:13"]),
    fan_out: (lambda path: path.startswith("src/"), "fbs009",
              ("src/repro/netsim/parallel.py", "src/repro/load/worker.py"), ["10:1", "11:1", "15:11", "8:1"]),
}


def located(finder, path, home):
    """``line:column`` of each violation in ``path``, standing at ``home``."""
    if not POLICY[finder][0](home):
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(f"{n.lineno}:{n.col_offset + 1}" for n in ast.walk(tree) if finder(n))


@pytest.mark.parametrize("finder", POLICY, ids=lambda finder: finder.__name__)
def test_the_tree_keeps_the_policy(finder):
    files = [p for top in ("src", "tests") for p in sorted((REPO / top).rglob("*.py"))]
    homes = [p.relative_to(REPO).as_posix() for p in files if FIXTURES not in p.parents]
    assert len(homes) > 200
    assert [f"{home}:{at}" for home in homes for at in located(finder, REPO / home, home)] == []


@pytest.mark.parametrize("finder", POLICY, ids=lambda finder: finder.__name__)
def test_the_bad_fixture_fails_where_recorded_and_its_twin_passes(finder):
    _, stem, (bad_home, ok_home), recorded = POLICY[finder]
    assert located(finder, FIXTURES / f"{stem}_bad.py", bad_home) == recorded
    assert located(finder, FIXTURES / f"{stem}_ok.py", ok_home) == []


@pytest.mark.parametrize("finder, home, covered", [(asserts, "src/repro/x.py", True), (asserts, "tests/x.py", False),
    (swallowed, "tests/x.py", True), (fan_out, "src/repro/netsim/parallel.py", True), (fan_out, "tests/x.py", False),
    (fan_out, "src/repro/load/worker.py", True)], ids=lambda value: getattr(value, "__name__", value))
def test_the_policy_covers_where_it_should(finder, home, covered):
    assert bool(located(finder, FIXTURES / f"{POLICY[finder][1]}_bad.py", home)) is covered


def test_every_json_dump_in_src_sorts_its_keys():
    # Dict order is insertion order, so this is style, not determinism:
    # a report's bytes should not depend on the order code built it in.
    sites = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "json.dump", "json.dumps"
            ):
                assert "sort_keys" in {kw.arg for kw in node.keywords}, (path, node.lineno)
                sites.append(path.name)
    assert len(sites) == 3


def test_the_audit_hook_is_defined_once_and_shared():
    tests = REPO / "tests"
    hooks = [
        path.relative_to(tests).as_posix()
        for path in sorted(tests.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "sys.addaudithook"
    ]
    assert hooks == ["shim/loopguard.py"]
    for user in ("conftest.py", "shim/sitecustomize.py"):
        tree = ast.parse((tests / user).read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert "loopguard" in imported, user
        assert "loopguard.install()" in ast.unparse(tree), user
