"""Structural gate: fbslint states each fact and each detector once.

Plain ``ast`` over ``src/repro/analysis`` (no fbslint rule): every table
that says what a source, a clock or an unseeded generator is is defined
in exactly one module; the rule modules walk no source, sink, clock or
RNG site of their own; the engine joins the two phases' findings
without reconciling them; and phase 2 is two graph algorithms -- one
label propagation, one transitive-reach closure -- each written once
and instantiated per rule ("replace, don't fork").  The label language
is key taint and nothing else, and the fact base has no exception
dimension: report determinism is checked on the bytes
(``tests/test_report_determinism.py``) and the receive contract on the
running code (``tests/property/test_receive_contract.py``), not by a
second or third dimension of the walk.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import callgraph
from repro.analysis.context import ModuleContext

REPO_ROOT = Path(__file__).resolve().parents[1]
ANALYSIS = REPO_ROOT / "src" / "repro" / "analysis"
ONE_HOME = (
    "SOURCE_FRAGMENTS",
    "SOURCE_NAMES",
    "LOG_METHODS",
    "_NDARRAY_FUNCS",
    "_BANNED_TIME_ATTRS",
    "_BANNED_DATETIME_ATTRS",
    "_GLOBAL_RANDOM_FUNCS",
    "_NUMPY_GLOBAL_FUNCS",
    "_NUMPY_CONSTRUCTORS",
)
#: AST node types only the phase-1 summarizer may dispatch on.
SUMMARIZER_ONLY = {"Raise", "Compare", "JoinedStr", "FormattedValue"}


def _trees():
    for path in sorted(ANALYSIS.rglob("*.py")):
        yield path.relative_to(ANALYSIS).as_posix(), ast.parse(path.read_text())


def _homes(name):
    """Modules defining ``name`` (any spelling of its leading underscore)."""
    bare = name.lstrip("_")
    homes = []
    for relative, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            homes += [relative for d in defined if d.lstrip("_") == bare]
    return homes


@pytest.mark.parametrize("name", ONE_HOME)
def test_each_fact_table_has_one_home(name):
    assert _homes(name) == ["callgraph.py"]


def test_rule_modules_walk_no_dataflow_site():
    for relative, tree in _trees():
        if not relative.startswith("rules/"):
            continue
        touched = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ast"
        }
        assert not touched & SUMMARIZER_ONLY, (relative, touched & SUMMARIZER_ONLY)


def test_engine_has_no_finding_dedupe():
    tree = ast.parse((ANALYSIS / "engine.py").read_text())
    finalize = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_finalize"
    )
    names = {n.id for n in ast.walk(finalize) if isinstance(n, ast.Name)}
    assert "seen" not in names and "set" not in names
    assert not any(isinstance(n, (ast.Set, ast.SetComp)) for n in ast.walk(finalize))


def test_no_summary_cache_or_serializer_remains():
    assert not (ANALYSIS / "cache.py").exists()
    for relative, tree in _trees():
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "from_dict" not in defined, relative
        if relative != "findings.py":  # Finding.as_dict is --format json
            assert "as_dict" not in defined, relative


# -- phase 2: two graph algorithms, each written once ----------------------------------


def _dataflow_methods():
    tree = ast.parse((ANALYSIS / "dataflow.py").read_text())
    return tree, {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }


def _self_calls(function):
    return {
        node.func.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    }


def test_phase2_has_one_propagation_and_one_closure_loop():
    tree, methods = _dataflow_methods()
    fixpoints = [
        name
        for name, function in methods.items()
        for node in ast.walk(function)
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(_MAX_ITERATIONS)"
    ]
    assert sorted(fixpoints) == ["_closure", "_propagate"]
    assert ast.unparse(tree).count("_MAX_ITERATIONS") == 3  # its definition + the two


def test_phase2_is_two_graph_algorithms():
    # Every pass obtains its facts from one of the two algorithms and
    # from nothing else (``_emit`` only reports them).
    _, methods = _dataflow_methods()
    passes = [name for name in methods if name.endswith("_pass")]
    assert sorted(passes) == ["_blocking_pass", "_impurity_pass", "_taint_pass"]
    used = set().union(*(_self_calls(methods[name]) for name in passes))
    assert used - {"_emit"} == {"_propagate", "_closure"}


#: rule id -> the one algorithm its findings come through.
SHARED_ALGORITHM = {
    "FBS001": "_propagate",
    "FBS002": "_closure",
    "FBS003": "_closure",
    "FBS010": "_closure",
}


@pytest.mark.parametrize("rule_id", sorted(SHARED_ALGORITHM))
def test_each_dataflow_rule_reaches_emit_through_its_shared_algorithm(rule_id):
    _, methods = _dataflow_methods()
    # The one function that names the rule (outside the dispatcher) is
    # an instantiation: it obtains its facts from the shared algorithm.
    naming = [
        name
        for name, function in methods.items()
        if name != "run"
        and any(
            isinstance(node, ast.Constant) and node.value == rule_id
            for node in ast.walk(function)
        )
    ]
    assert len(naming) == 1, naming
    assert SHARED_ALGORITHM[rule_id] in _self_calls(methods[naming[0]])


def test_only_the_instantiations_emit():
    _, methods = _dataflow_methods()
    emitters = {name for name, fn in methods.items() if "_emit" in _self_calls(fn)}
    assert emitters == {"_taint_pass", "_impurity_pass", "_blocking_pass"}


# -- no exception dimension in the fact base ------------------------------------------

#: What the exception-flow analysis was made of; the receive contract is
#: checked on the running code instead.
EXCEPTION_FLOW = ("RaiseSite", "bump_before", "exception_ancestors", "BUILTIN_EXC_PARENTS")


def test_no_exception_flow_analysis_remains():
    for path in sorted(ANALYSIS.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not [name for name in EXCEPTION_FLOW if name in text], path


def test_the_summarizer_walk_threads_no_handler_or_bump_context():
    tree = ast.parse((ANALYSIS / "callgraph.py").read_text())
    summarizer = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "_FunctionSummarizer"
    )
    threaded = [
        (method.name, arg.arg)
        for method in summarizer.body
        if isinstance(method, ast.FunctionDef)
        for arg in method.args.args + method.args.kwonlyargs
        if arg.arg in ("caught", "bump")
    ]
    assert threaded == []


# -- the label language is key taint and nothing else ----------------------------------


def test_summaries_hold_only_the_five_label_kinds():
    kinds = set()
    for top in ("src", "tests/analysis/fixtures"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            name = str(path.relative_to(REPO_ROOT))
            summary = callgraph.summarize_module(
                ModuleContext(
                    path=name, logical_path=name, tree=ast.parse(source), source=source
                )
            )
            for fn in summary.functions.values():
                pools = [fn.returns]
                pools += [labels for _, labels, _ in fn.attr_stores]
                pools += [sink.labels for sink in fn.sinks]
                for site in fn.calls:
                    pools += site.args + list(site.kwargs.values())
                kinds.update(label[0] for pool in pools for label in pool)
    assert kinds == {"src", "param", "ret", "attr", "ctor"}


def test_no_iteration_order_analysis_remains_in_src():
    gone = ('"ord"', "OrderSite", "order_sites", "ord_opaque", "unsorted_json", "_REPORT_ZONE")
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not [name for name in gone if name in text], path


def test_every_json_dump_in_src_sorts_its_keys():
    # Dict order is insertion order, so this is style, not determinism:
    # a report's bytes should not depend on the order code built it in.
    sites = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "json.dump", "json.dumps"
            ):
                assert "sort_keys" in {kw.arg for kw in node.keywords}, (path, node.lineno)
                sites.append(path.name)
    assert len(sites) == 4
