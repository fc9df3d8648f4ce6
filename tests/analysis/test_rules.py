"""Fixture tests for the one rule, FBS001 key taint: it fires at every
planted leak of its violating fixture, stays quiet on the compliant one,
and sees every place python evaluates an expression."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
#: The module the fixtures impersonate.
SESSION = "src/repro/core/session.py"


def lint_fixture(name: str):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), path=name, logical_path=SESSION)


def test_taint_fires_at_every_planted_leak():
    found = [(f.line, f.column) for f in lint_fixture("fbs001_bad.py")]
    assert found == [
        (14, 5), (15, 13), (16, 5), (18, 8), (28, 5), (33, 5), (39, 21),
        (41, 20), (45, 18), (48, 13), (58, 5), (59, 5), (60, 12),
    ]


def test_taint_quiet_on_the_compliant_fixture():
    findings = lint_fixture("fbs001_ok.py")
    assert findings == [], [f.render() for f in findings]


#: A module preamble and an expression FBS001 bans.
_PREAMBLE = "from repro.core import kdf\nKEY = kdf.flow_key(1)\n"
_BANNED = "print(KEY)"

#: Places an expression can hide from a walk that only follows
#: function bodies: name -> source with ``EXPR`` slots.
_SHAPES = {
    "lambda body": "f = lambda: EXPR\n",
    "class body": "class C:\n    x = EXPR\n",
    "default value": "def f(x=EXPR, *, y=EXPR):\n    return x\n",
    "decorator": "@deco(EXPR)\ndef f():\n    pass\n",
    "class keyword": "class C(Base, flag=EXPR):\n    pass\n",
    "conditional def": "if FAST:\n    def f():\n        return EXPR\n",
    "method of a local class": (
        "def f():\n    class C:\n        def m(self):\n            return EXPR\n"
    ),
    "computed callee": "(lambda: EXPR)()\n",
    "key-derivation receiver": "k = make(EXPR).flow_key(1)\n",
    "subscript store": "d = {}\nd[EXPR] = 1\n",
    "format spec": 'def f(v):\n    return f"{v:{EXPR}}"\n',
    "match arm": "match v:\n    case 1 if EXPR:\n        pass\n    case _:\n        EXPR\n",
    "except* handler": "try:\n    pass\nexcept* OSError:\n    EXPR\n",
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_no_expression_hides_from_the_one_walk(shape):
    # The taint rule sees exactly what the phase-1 summarizer walks, so
    # every place python evaluates an expression must be on the walk.
    template = _SHAPES[shape]
    findings = lint_source(
        _PREAMBLE + template.replace("EXPR", _BANNED),
        logical_path="src/repro/core/x.py",
    )
    assert len(findings) == template.count("EXPR"), [f.render() for f in findings]


def test_module_pragma_counts_only_on_a_comment_line_of_its_own(tmp_path):
    # A file outside any ``repro`` directory takes the dotted name its
    # pragma pins, so a caller importing that name reaches its key.  A
    # pragma quoted in a string, or inside another comment, re-homes
    # nothing: the import then resolves nowhere and no flow is found.
    (tmp_path / "app.py").write_text(
        "from repro.core.kdf import derive\n"
        "def audit(kdf):\n    print(derive(kdf))\n"
    )
    derive = "def derive(kdf):\n    return kdf.flow_key(1)\n"
    pinned = "# fbslint: module=repro.core.kdf\n" + derive
    quoted = (
        'NOTE = "# fbslint: module=repro.core.kdf"'
        "  # see ``# fbslint: module=repro.core.kdf``\n" + derive
    )
    for source, expected in ((pinned, 1), (quoted, 0)):
        (tmp_path / "kdf.py").write_text(source)
        assert len(lint_paths([tmp_path], root=tmp_path)) == expected, source


def test_compare_against_none_is_not_flagged():
    source = (
        "def check(kdf):\n"
        "    key = kdf.flow_key(1, b'm', None, None)\n"
        "    return key is not None\n"
    )
    assert lint_source(source, logical_path="src/repro/core/x.py") == []


def test_real_header_module_is_clean():
    # The codec lints clean alone (its layout is pinned on real bytes by
    # tests/core/test_header.py, and its failures on hostile bytes by
    # tests/property/test_receive_contract.py, not by a rule).
    path = Path(__file__).parents[2] / "src/repro/core/header.py"
    findings = lint_source(path.read_text(encoding="utf-8"), logical_path=str(path))
    assert findings == [], [f.render() for f in findings]
