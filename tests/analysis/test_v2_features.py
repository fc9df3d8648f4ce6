"""Surface features: Finding total order, the JSON flow export, docs
sync, and FBS012 opt-outs."""

import io
import json
from pathlib import Path

from repro.analysis import all_rules, lint_source
from repro.analysis.cli import main
from repro.analysis.docsync import render_table
from repro.analysis.findings import Finding, Severity

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFindingOrder:
    def _f(self, **kw):
        base = dict(
            rule_id="FBS001", severity=Severity.ERROR, path="a.py",
            line=1, column=1, message="m",
        )
        base.update(kw)
        return Finding(**base)

    def test_sort_key_is_a_total_order(self):
        # Regression: two findings at the same location used to compare
        # as unordered; every field now participates.
        findings = [
            self._f(message="zz"),
            self._f(rule_id="FBS004", severity=Severity.WARNING),
            self._f(message="aa"),
            self._f(path="b.py"),
            self._f(line=2),
            self._f(column=3),
        ]
        keys = [f.sort_key for f in findings]
        ordered = sorted(keys)
        assert ordered == sorted(ordered)  # transitive + stable
        assert len(set(keys)) == len(keys)
        # (path, line, col, rule, message) -- message breaks the last tie.
        assert sorted([self._f(message="zz"), self._f(message="aa")],
                      key=lambda f: f.sort_key)[0].message == "aa"

    def test_engine_orders_same_location_findings(self, tmp_path):
        # Same path/line/column, different rules: deterministic order.
        source = "import multiprocessing  # fbslint: disable=FBS004\n"
        result = lint_source(source, logical_path="src/repro/core/x.py")
        keys = [(-int(f.severity),) + f.sort_key for f in result.findings]
        assert keys == sorted(keys)


class TestJsonFlow:
    def test_json_carries_flow_paths(self, tmp_path, monkeypatch):
        # The one machine format exports the witness structurally.
        (tmp_path / "src/repro/core").mkdir(parents=True)
        (tmp_path / "src/repro/core/kdf.py").write_text(
            "def derive(kdf):\n    return kdf.flow_key(1)\n"
        )
        (tmp_path / "src/repro/core/app.py").write_text(
            "from repro.core.kdf import derive\n"
            "def audit(kdf):\n    print(derive(kdf))\n"
        )
        monkeypatch.chdir(tmp_path)
        code, output = run_cli("--format", "json", "src")
        assert code == 1
        findings = json.loads(output)["findings"]
        assert sorted(findings[0]) == [
            "column", "flow", "line", "message", "path", "rule", "severity",
        ]
        assert all(len(f["flow"]) >= 2 for f in findings)


class TestDocsSync:
    def test_repo_docs_are_in_sync(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, output = run_cli("--check-docs")
        assert code == 0, output

    def test_drifted_table_fails(self, tmp_path, monkeypatch):
        design = tmp_path / "DESIGN.md"
        design.write_text(
            "# x\n<!-- fbslint-invariants:begin -->\nstale\n"
            "<!-- fbslint-invariants:end -->\n"
        )
        monkeypatch.chdir(tmp_path)
        code, output = run_cli("--check-docs")
        assert code == 2
        assert "out of sync" in output

    def test_write_docs_then_check(self, tmp_path, monkeypatch):
        design = tmp_path / "DESIGN.md"
        design.write_text(
            "# x\n<!-- fbslint-invariants:begin -->\n"
            "<!-- fbslint-invariants:end -->\ntail\n"
        )
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli("--write-docs")
        assert code == 0
        assert render_table() in design.read_text()
        assert design.read_text().endswith("tail\n")
        code, _ = run_cli("--check-docs")
        assert code == 0

    def test_missing_markers_fail(self, tmp_path, monkeypatch):
        (tmp_path / "DESIGN.md").write_text("no markers here\n")
        monkeypatch.chdir(tmp_path)
        code, output = run_cli("--check-docs")
        assert code == 2
        assert "markers" in output

    def test_table_covers_every_rule(self):
        table = render_table()
        for rule in all_rules():
            assert rule.rule_id in table


class TestUnusedSuppressions:
    SOURCE = "def f(t):\n    return t  # fbslint: disable=FBS004\n"

    def test_reported_by_default(self):
        result = lint_source(self.SOURCE, logical_path="src/repro/core/x.py")
        assert [f.rule_id for f in result.findings] == ["FBS012"]
        assert "matches no finding" in result.findings[0].message

    def test_opt_out_flag(self):
        # FBS012 is deselected like any other rule.
        rules = [rule for rule in all_rules() if rule.rule_id != "FBS012"]
        result = lint_source(
            self.SOURCE, logical_path="src/repro/core/x.py", rules=rules
        )
        assert result.findings == []

    def test_cli_opt_out(self):
        code, _ = run_cli("--ignore", "FBS012", str(FIXTURES / "fbs012_bad.py"))
        assert code == 0

    def test_narrowed_select_does_not_fire(self, tmp_path):
        target = tmp_path / "x.py"
        target.write_text(self.SOURCE)
        # With --select the unselected-rule directives are not "unused".
        code, _ = run_cli("--select", "FBS001", str(target))
        assert code == 0
