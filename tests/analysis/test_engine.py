"""Engine behaviours: discovery, errors, report order and the witness flow."""

import pytest

from repro.analysis import LintError, lint_paths, lint_source
from repro.analysis.engine import discover

_DERIVE = "def derive(kdf):\n    return kdf.flow_key(1)\n"
_AUDIT = "from repro.core.kdf import derive\ndef audit(kdf):\n    print(derive(kdf))\n"


class TestEngine:
    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n")

    def test_missing_path_raises_lint_error(self, tmp_path):
        for absent in (tmp_path / "absent.py", tmp_path / "absent"):
            with pytest.raises(LintError):
                lint_paths([absent], root=tmp_path)

    def test_discovery_is_sorted_and_skips_caches(self, tmp_path):
        for name in ("b.py", "a.py", "notes.txt", "__pycache__/c.py", "pkg/d.py"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text("x = 1\n")
        found = [p.relative_to(tmp_path).as_posix() for p in discover([tmp_path])]
        assert found == ["a.py", "b.py", "pkg/d.py"]

    def test_multi_file_run_is_in_location_order(self, tmp_path):
        # Files handed over out of order, two sinks on one line: the
        # report is sorted by path, line, then column.
        leak = "def f(kdf):\n    k = kdf.flow_key(1)\n    print(k, f'{k}')\n"
        (tmp_path / "a.py").write_text(leak)
        (tmp_path / "b.py").write_text(leak)
        findings = lint_paths([tmp_path / "b.py", tmp_path / "a.py"], root=tmp_path)
        keys = [(f.path, f.line, f.column) for f in findings]
        assert keys == [("a.py", 3, 5), ("a.py", 3, 14), ("b.py", 3, 5), ("b.py", 3, 14)]


def test_a_cross_module_finding_carries_its_witness_flow(tmp_path):
    # The witness path, source -> ... -> sink, rides on the finding and
    # in its one text line.
    (tmp_path / "src/repro/core").mkdir(parents=True)
    (tmp_path / "src/repro/core/kdf.py").write_text(_DERIVE)
    (tmp_path / "src/repro/core/app.py").write_text(_AUDIT)
    (finding,) = lint_paths([tmp_path / "src"], root=tmp_path)
    assert finding.path == "src/repro/core/app.py"
    assert len(finding.flow) >= 2
    assert all(step in finding.render() for step in finding.flow)
