"""Structural gate: fbslint is key taint, stated once ("replace, don't fork").

Plain ``ast`` over ``src/repro/analysis`` (no fbslint rule).  The
package is the two phases of one check and a thin engine and CLI
around them: no rule framework (``rules/``, a registry, ``Severity``),
no suppression syntax, no generated doc table, no option but the paths.
Every table that says what a source or a sink is is defined in exactly
one module, and phase 2 is one graph algorithm, label propagation,
written once.  The label language is key taint and nothing else, and
the fact base has no exception, clock, generator or blocking
dimension: report determinism, the wall clock and unseeded randomness
are checked on the bytes (``tests/test_report_determinism.py`` and its
clock-offset shim), blocking on the event loop by one audit hook
(``tests/shim/loopguard.py``), the receive contract on the running code
(``tests/property/test_receive_contract.py``) and the syntactic repo
policy by ``tests/test_policy_structure.py``.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import callgraph
from repro.analysis.cli import main
from repro.analysis.context import ModuleContext

REPO_ROOT = Path(__file__).resolve().parents[1]
ANALYSIS = REPO_ROOT / "src" / "repro" / "analysis"
#: The whole package: phase 1, phase 2, the module identity, the engine
#: and the CLI.
MODULES = {"__init__", "__main__", "callgraph", "context", "dataflow", "engine", "cli"}
ONE_HOME = ("SOURCE_FRAGMENTS", "SOURCE_NAMES", "LOG_METHODS", "_CONTENT_FUNCS")
#: What FBS002, FBS003 and FBS010 were made of: the reach algorithm, its
#: two passes and their zones, the call-site detector, and the clock,
#: generator and blocking-call tables it read.  Then what the rule
#: framework was made of: the registry, severities, rule selection, the
#: suppression parser and FBS012, and the DESIGN.md table generator.
RETIRED = (
    "_closure",
    "_impurity_pass",
    "_blocking_pass",
    "_PURITY_ZONE",
    "_CLOCK_SANCTIONED",
    "_detect_library_call",
    "BLOCKING_CALLS",
    "BLOCKING_BARE",
    "_BANNED_TIME_ATTRS",
    "_BANNED_DATETIME_ATTRS",
    "_GLOBAL_RANDOM_FUNCS",
    "_NUMPY_GLOBAL_FUNCS",
    "_NUMPY_CONSTRUCTORS",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "_REGISTRY",
    "Severity",
    "_select_rules",
    "SuppressionIndex",
    "_DIRECTIVE",
    "_unused_suppression_findings",
    "render_table",
    "check_docs",
    "write_docs",
    "LintResult",
)


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


@pytest.mark.parametrize("name", RETIRED)
def test_no_reach_algorithm_or_site_table_remains(name):
    assert _homes(name) == []


def test_the_package_is_the_one_check():
    assert not list(ANALYSIS.rglob("rules/*.py"))
    assert {path.stem for path in ANALYSIS.glob("*.py")} == MODULES


def test_the_cli_takes_paths_and_nothing_else(capsys):
    assert main(["--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == "usage: python -m repro.analysis [-h] [paths ...]"


def test_engine_has_no_finding_dedupe():
    # One producer: the engine sorts the pass's findings and drops none.
    tree = ast.parse((ANALYSIS / "engine.py").read_text())
    run = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_run")
    assert ast.unparse(run.body[0].value) == "taint_findings(Project(summaries))"
    assert isinstance(run.body[1], ast.Return) and ast.unparse(run.body[1].value).startswith(
        "sorted(findings,"
    )


def test_no_summary_cache_or_serializer_remains():
    for relative, tree in _trees():
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert not defined & {"from_dict", "as_dict"}, relative


# -- phase 2: one graph algorithm, written once ------------------------------------------


def _dataflow_functions():
    tree = ast.parse((ANALYSIS / "dataflow.py").read_text())
    return tree, {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }


def _names(function, kind):
    return {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, kind)
    }


def test_phase2_has_one_fixpoint_loop_and_one_pass():
    tree, functions = _dataflow_functions()
    fixpoints = [
        name
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(_MAX_ITERATIONS)"
    ]
    assert fixpoints == ["_propagate"]
    assert ast.unparse(tree).count("_MAX_ITERATIONS") == 2  # its definition + the one
    assert [name for name in functions if name.endswith("_pass")] == ["_taint_pass"]


def test_the_one_pass_builds_every_finding_from_the_one_algorithm():
    _, functions = _dataflow_functions()
    builders = [name for name, fn in functions.items() if "Finding" in _names(fn, ast.Name)]
    assert builders == ["_taint_pass"]
    assert "_propagate" in _names(functions["_taint_pass"], ast.Attribute)
    naming = [
        name
        for name, function in functions.items()
        if "FBS001" in ast.unparse(function)
    ]
    assert naming == ["render"]  # the id is spelled once, in the report line


# -- the audit hook is written once -----------------------------------------------------


def test_the_audit_hook_is_defined_once_and_shared():
    tests = REPO_ROOT / "tests"
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


def test_summaries_carry_no_clock_generator_or_loop_fact():
    fields = {
        "FunctionSummary": callgraph.FunctionSummary.__dataclass_fields__,
        "ModuleSummary": callgraph.ModuleSummary.__dataclass_fields__,
    }
    gone = {"is_async", "wall_clock", "unseeded_random", "blocking", "is_test"}
    assert {name: set(held) & gone for name, held in fields.items()} == {
        "FunctionSummary": set(),
        "ModuleSummary": set(),
    }


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
    assert len(sites) == 3
