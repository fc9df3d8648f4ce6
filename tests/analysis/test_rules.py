"""Per-rule fixture tests: each rule fires on its violating fixture and
stays quiet on the compliant one (acceptance criteria of ISSUE 1)."""

import sys
from pathlib import Path

import pytest

from repro.analysis import all_rules, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (logical path the fixtures impersonate, findings expected
#: from the violating fixture).
CASES = {
    "FBS001": ("src/repro/core/session.py", 10),
    "FBS004": ("src/repro/baselines/guard.py", 1),
    "FBS007": ("src/repro/core/protocol.py", 3),
    "FBS009": ("src/repro/netsim/parallel.py", 4),
    "FBS012": ("src/repro/core/guard.py", 2),
}


def lint_fixture(name: str, logical_path: str):
    path = FIXTURES / name
    return lint_source(
        path.read_text(encoding="utf-8"), path=name, logical_path=logical_path
    )


def test_every_rule_has_a_fixture_pair():
    ids = {rule.rule_id for rule in all_rules()}
    assert ids == set(CASES), "CASES must cover exactly the registered rules"
    for rule_id in ids:
        stem = rule_id.lower()
        assert (FIXTURES / f"{stem}_ok.py").exists()
        assert (FIXTURES / f"{stem}_bad.py").exists()


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_fires_on_violating_fixture(rule_id):
    logical, expected = CASES[rule_id]
    result = lint_fixture(f"{rule_id.lower()}_bad.py", logical)
    fired = [f for f in result.findings if f.rule_id == rule_id]
    assert len(fired) == expected, [f.render() for f in result.findings]
    # No cross-rule noise: the violating fixture trips only its rule.
    assert {f.rule_id for f in result.findings} == {rule_id}
    # Every finding carries a real location.
    assert all(f.line > 0 and f.path for f in fired)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_quiet_on_compliant_fixture(rule_id):
    logical, _ = CASES[rule_id]
    result = lint_fixture(f"{rule_id.lower()}_ok.py", logical)
    assert result.findings == [], [f.render() for f in result.findings]


#: A module preamble and an expression FBS001 bans.
_PREAMBLE = "from repro.core import kdf\nKEY = kdf.flow_key(1)\n"
_BANNED = "print(KEY)"

#: Places an expression can hide from a walk that only follows
#: function bodies: name -> (source with ``EXPR`` slots, minimum python).
_SHAPES = {
    "lambda body": ("f = lambda: EXPR\n", (3, 9)),
    "class body": ("class C:\n    x = EXPR\n", (3, 9)),
    "default value": ("def f(x=EXPR, *, y=EXPR):\n    return x\n", (3, 9)),
    "decorator": ("@deco(EXPR)\ndef f():\n    pass\n", (3, 9)),
    "class keyword": ("class C(Base, flag=EXPR):\n    pass\n", (3, 9)),
    "conditional def": ("if FAST:\n    def f():\n        return EXPR\n", (3, 9)),
    "method of a local class": (
        "def f():\n    class C:\n        def m(self):\n            return EXPR\n",
        (3, 9),
    ),
    "computed callee": ("(lambda: EXPR)()\n", (3, 9)),
    "key-derivation receiver": ("k = make(EXPR).flow_key(1)\n", (3, 9)),
    "subscript store": ("d = {}\nd[EXPR] = 1\n", (3, 9)),
    "format spec": ('def f(v):\n    return f"{v:{EXPR}}"\n', (3, 9)),
    "match arm": (
        "match v:\n    case 1 if EXPR:\n        pass\n    case _:\n        EXPR\n",
        (3, 10),
    ),
    "except* handler": ("try:\n    pass\nexcept* OSError:\n    EXPR\n", (3, 11)),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_no_expression_hides_from_the_one_walk(shape):
    # The taint rule sees exactly what the phase-1 summarizer walks, so
    # every place python evaluates an expression must be on the walk.
    template, minimum = _SHAPES[shape]
    if sys.version_info < minimum:
        pytest.skip(f"{shape} needs python {minimum}")
    result = lint_source(
        _PREAMBLE + template.replace("EXPR", _BANNED),
        logical_path="src/repro/core/x.py",
    )
    fired = [f.rule_id for f in result.findings]
    assert fired == ["FBS001"] * template.count("EXPR"), [
        f.render() for f in result.findings
    ]


_ASSERT_GUARD = "def issue(t):\n    assert t\n    return t\n"
_MP_IMPORT = "import multiprocessing\n\ndef ctx():\n    return multiprocessing.get_context('spawn')\n"


def test_multiprocessing_allowed_only_in_load():
    # The same fan-out code is legal in repro.load, banned elsewhere.
    inside = lint_source(_MP_IMPORT, logical_path="src/repro/load/engine.py")
    outside = lint_source(_MP_IMPORT, logical_path="src/repro/core/engine.py")
    assert inside.findings == []
    assert [f.rule_id for f in outside.findings] == ["FBS009"]


def test_asserts_allowed_in_test_code():
    lib = lint_source(_ASSERT_GUARD, logical_path="src/repro/core/x.py")
    test = lint_source(
        _ASSERT_GUARD, logical_path="tests/baselines/test_guard.py"
    )
    assert [f.rule_id for f in lib.findings] == ["FBS004"]
    assert test.findings == []


def test_module_pragma_counts_only_on_a_comment_line_of_its_own():
    # A test file that merely *quotes* the pragma -- in a string it
    # will lint, or inside another comment -- keeps its path-derived
    # module (asserts allowed); on a comment line of its own the pragma
    # re-homes the file into library code, where the assert is FBS004.
    quoted = (
        'SOURCE = "# fbslint: module=repro.core.x"'
        "  # see ``# fbslint: module=repro.core.y``\n" + _ASSERT_GUARD
    )
    pinned = "    # fbslint: module=repro.core.x\n" + _ASSERT_GUARD
    path = "tests/analysis/test_quote.py"
    assert lint_source(quoted, logical_path=path).findings == []
    assert [
        f.rule_id for f in lint_source(pinned, logical_path=path).findings
    ] == ["FBS004"]


def test_compare_against_none_is_not_flagged():
    source = (
        "def check(kdf):\n"
        "    key = kdf.flow_key(1, b'm', None, None)\n"
        "    return key is not None\n"
    )
    result = lint_source(source, logical_path="src/repro/core/x.py")
    assert result.findings == []


def test_real_header_module_is_clean():
    # The codec lints clean alone (its layout is pinned on real bytes by
    # tests/core/test_header.py, and its failures on hostile bytes by
    # tests/property/test_receive_contract.py, not by a rule).
    path = Path(__file__).parents[2] / "src/repro/core/header.py"
    result = lint_source(
        path.read_text(encoding="utf-8"), logical_path=str(path)
    )
    assert result.findings == [], [f.render() for f in result.findings]


def test_rule_metadata_complete():
    for rule in all_rules():
        assert rule.rule_id.startswith("FBS") and len(rule.rule_id) == 6
        assert rule.name and rule.description and rule.rationale
        assert rule.severity in (1, 2)
