"""Engine behaviours: inline suppressions, rule selection, FBS012."""

from pathlib import Path

import pytest

from repro.analysis import LintError, lint_source
from repro.analysis.base import get_rule
from repro.analysis.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

_ASSERT_GUARD = "def issue(t):\n    assert t\n    return t\n"


class TestSuppressions:
    def test_inline_disable(self):
        source = "def issue(t):\n    assert t  # fbslint: disable=FBS004\n"
        result = lint_source(source, logical_path="src/repro/core/x.py")
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_next_line(self):
        source = (
            "def issue(t):\n"
            "    # fbslint: disable-next-line=FBS004\n"
            "    assert t\n"
        )
        result = lint_source(source, logical_path="src/repro/core/x.py")
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_file(self):
        source = (
            "# fbslint: disable-file=FBS004\n"
            "def a(t):\n    assert t\n"
            "def b(t):\n    assert not t\n"
        )
        result = lint_source(source, logical_path="src/repro/core/x.py")
        assert result.findings == []
        assert result.suppressed == 2

    def test_disable_all_wildcard(self):
        source = "def issue(t):\n    assert t  # fbslint: disable=all\n"
        result = lint_source(source, logical_path="src/repro/core/x.py")
        assert result.findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = "def issue(t):\n    assert t  # fbslint: disable=FBS001\n"
        result = lint_source(source, logical_path="src/repro/core/x.py")
        # The assert still fires, and the ineffective suppression is
        # itself reported (FBS012).
        assert [f.rule_id for f in result.findings] == ["FBS004", "FBS012"]

    def test_directive_inside_string_is_inert(self):
        source = (
            'NOTE = "# fbslint: disable-file=FBS004"\n'
            "def issue(t):\n    assert t\n"
        )
        result = lint_source(source, logical_path="src/repro/core/x.py")
        assert [f.rule_id for f in result.findings] == ["FBS004"]


class TestUnusedDirectiveUnderNarrowing:
    """FBS012 is an ordinary member of the selected set: a directive is
    reported as unused iff every rule it names ran."""

    BAD = FIXTURES / "fbs012_bad.py"  # disable-file=FBS009, disable=FBS004

    def _unused(self, **narrowing):
        result = lint_paths([self.BAD], **narrowing)
        assert {f.rule_id for f in result.findings} <= {"FBS012"}
        return [f.line for f in result.findings]

    def test_selecting_the_rule_does_not_switch_it_off(self):
        # Any narrowing used to disable the step, so asking for FBS012
        # by name was the one way never to get it.
        both = self._unused()
        assert len(both) == 2
        assert self._unused(ignore=["FBS001"]) == both
        assert self._unused(select=["FBS004", "FBS009", "FBS012"]) == both

    def test_directive_naming_an_unselected_rule_is_left_alone(self):
        file_wide, inline = self._unused()
        assert self._unused(select=["FBS004", "FBS012"]) == [inline]
        assert self._unused(select=["FBS009", "FBS012"]) == [file_wide]
        assert self._unused(select=["FBS012"]) == []
        assert self._unused(ignore=["FBS012"]) == []

    def test_disable_all_names_every_rule(self):
        source = "def f(t):\n    # fbslint: disable-next-line=all\n    return t\n"
        full = lint_source(source, logical_path="src/repro/core/x.py")
        assert [f.rule_id for f in full.findings] == ["FBS012"]
        narrowed = lint_source(
            source,
            logical_path="src/repro/core/x.py",
            rules=[get_rule("FBS004"), get_rule("FBS012")],
        )
        assert narrowed.findings == []

    def test_directive_naming_no_registered_rule_is_always_unused(self):
        # A retired or mistyped id can never suppress anything.
        source = "def f(t):\n    return t  # fbslint: disable=FBS005\n"
        result = lint_source(
            source, logical_path="src/repro/core/x.py", rules=[get_rule("FBS012")]
        )
        assert [f.rule_id for f in result.findings] == ["FBS012"]


class TestEngine:
    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n")

    def test_unknown_rule_select_rejected(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1\n")
        with pytest.raises(LintError):
            lint_paths([target], select=["FBS999"])

    def test_select_narrows_rules(self):
        path = FIXTURES / "fbs007_bad.py"
        source = path.read_text(encoding="utf-8")
        logical = "src/repro/core/protocol.py"
        result = lint_source(
            source, logical_path=logical, rules=[get_rule("FBS004")]
        )
        assert result.findings == []  # only FBS004 ran; file has no asserts

    def test_severity_ordering_in_multi_file_run(self, tmp_path):
        # Errors sort before warnings in aggregated output.
        (tmp_path / "a.py").write_text(
            "def f(t):\n    assert t\n"  # FBS004, error
        )
        (tmp_path / "b.py").write_text(
            "import random\n\ndef g():\n    return random.random()\n"
        )  # FBS003, warning
        result = lint_paths(
            [tmp_path / "b.py", tmp_path / "a.py"], root=tmp_path
        )
        # Paths are outside a repro package; generic rules still apply.
        severities = [int(f.severity) for f in result.findings]
        assert severities == sorted(severities, reverse=True)
