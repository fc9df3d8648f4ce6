"""Corpus robustness: the whole-program engine over every real module.

The engine survives ``src/`` and ``tests/`` without crashing, reports
in a total order, and finds exactly the recorded set.  That the report
is byte-stable run to run is the determinism differential's job
(``tests/test_report_determinism.py`` runs this CLI under two hash
seeds).
"""

import ast
import io
import re
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
#: One report line: ``path:line:column: RULE message``.
LINE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+):(?P<column>\d+): (?P<rule>FBS\d{3}) (?P<message>.+)$")


@pytest.fixture(scope="module")
def corpus():
    """One corpus run: its exit code and its report lines, parsed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        out = io.StringIO()
        code = main(["src", "tests"], out=out)
    *lines, summary = out.getvalue().splitlines()
    assert summary == f"fbslint: {len(lines)} findings"
    return code, [LINE.match(line).groupdict() for line in lines]


def test_corpus_run_is_ordered_and_located(corpus):
    # The fixture corpus holds deliberate leaks, so the run exits 1.
    code, findings = corpus
    assert code == 1
    assert findings, "fixture violations must surface"
    # Total order: path, line, column, message.
    keys = [(f["path"], int(f["line"]), int(f["column"]), f["message"]) for f in findings]
    assert keys == sorted(keys)
    assert all(int(f["line"]) >= 1 and int(f["column"]) >= 1 for f in findings)


def test_corpus_locations_match_the_recorded_set(corpus):
    # Where a finding is reported may only change on purpose.  Messages
    # are free to change.  The fixtures change deliberately, so their
    # findings are pinned by location; an ordinary module (a test that
    # compares two derived keys) is pinned by count, so an unrelated
    # edit that shifts its lines does not touch this file.
    _, findings = corpus
    found, counts = [], Counter()
    for f in findings:
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
