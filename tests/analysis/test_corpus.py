"""Corpus robustness: the whole-program engine over every real module.

Acceptance criteria of ISSUE 6: the engine survives ``src/`` and
``tests/`` without crashing, produces the same findings in the same
order across two runs, and ``--format json`` output is byte-identical.
"""

import ast
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import callgraph
from repro.analysis.cli import main
from repro.analysis.context import ModuleContext

REPO_ROOT = Path(__file__).parents[2]
FIXTURE_DIR = "tests/analysis/fixtures/"
#: The corpus run, sorted: ``RULE path:line:column`` per finding in a
#: fixture, ``RULE path xN`` per rule and file anywhere else.
RECORDED = Path(__file__).parent / "corpus_findings.txt"


def run_json(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    code = main(["--format", "json", "src", "tests"], out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def corpus():
    """One corpus run, shared by the tests that only read it."""
    with pytest.MonkeyPatch.context() as patch:
        return run_json(patch)


def test_corpus_stable_and_byte_identical(corpus, monkeypatch):
    code1, first = corpus
    code2, second = run_json(monkeypatch)
    # The fixture corpus contains deliberate violations, so a nonzero
    # exit is expected -- but it must be *reproducibly* nonzero.
    assert code1 == code2 == 1
    assert first == second, "two identical runs must serialize identically"

    payload = json.loads(first)
    assert payload["files_checked"] > 200
    findings = payload["findings"]
    assert findings, "fixture violations must surface"
    # Total order: severity-major, then (path, line, col, rule, message).
    keys = [
        (-_severity_rank(f["severity"]), f["path"], f["line"], f["column"],
         f["rule"], f["message"])
        for f in findings
    ]
    assert keys == sorted(keys)
    # Every finding is located and attributed.
    for f in findings:
        assert f["rule"].startswith("FBS")
        assert f["line"] >= 1 and f["column"] >= 1
        assert f["path"]


def _severity_rank(name):
    return {"warning": 1, "error": 2}[name]


def test_corpus_locations_match_the_recorded_set(corpus):
    # The differential that carried the rules from two engines to one:
    # where a finding is reported may only change on purpose.  Messages
    # are free to change.  The fixtures change deliberately, so their
    # findings are pinned by location; an ordinary module (a test that
    # compares two derived keys) is pinned by count, so an unrelated
    # edit that shifts its lines does not touch this file.
    _, output = corpus
    found, counts = [], Counter()
    for f in json.loads(output)["findings"]:
        if f["path"].startswith(FIXTURE_DIR):
            found.append(f"{f['rule']} {f['path']}:{f['line']}:{f['column']}")
        else:
            counts[f"{f['rule']} {f['path']}"] += 1
    found = sorted(found + [f"{key} x{n}" for key, n in counts.items()])
    recorded = RECORDED.read_text(encoding="utf-8").split("\n")[:-1]
    assert found == recorded, (
        "corpus finding locations drifted; missing: "
        f"{sorted(set(recorded) - set(found))}, new: "
        f"{sorted(set(found) - set(recorded))}"
    )


def test_summarizer_walks_every_expression_and_statement(monkeypatch):
    # One fact base means one walk: a call, compare, f-string field or
    # raise the phase-1 summarizer never visits is one no dataflow rule
    # can see (lambda and class bodies, default values, decorators and
    # match arms were such holes once).
    seen = set()

    def spy(method):
        def visit(self, node, *args):
            seen.add(id(node))
            return method(self, node, *args)
        return visit

    walker = callgraph._FunctionSummarizer
    monkeypatch.setattr(walker, "_eval", spy(walker._eval))
    monkeypatch.setattr(walker, "_stmt", spy(walker._stmt))
    watched = (ast.Call, ast.Compare, ast.FormattedValue, ast.Raise)
    files = sorted(
        path for top in ("src", "tests") for path in (REPO_ROOT / top).rglob("*.py")
    )
    assert len(files) > 200
    for path in files:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        name = str(path.relative_to(REPO_ROOT))
        callgraph.summarize_module(
            ModuleContext(path=name, logical_path=name, tree=tree, source=source)
        )
        missed = [
            f"{name}:{node.lineno} {ast.unparse(node)[:60]}"
            for node in ast.walk(tree)
            if isinstance(node, watched) and id(node) not in seen
        ]
        assert not missed, missed


def test_self_analysis_is_clean(monkeypatch):
    # The analyzer must hold itself (and the whole src tree) to its own
    # rules with an empty baseline.
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    code = main(["src"], out=out)
    assert code == 0, out.getvalue()
