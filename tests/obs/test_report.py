"""The CLI harness's path check and report writer (``repro.obs.report``)."""

import io
import json

import pytest

from repro.obs.report import refuse_path, render_report, write_report


class TestRefusePath:
    def test_no_path_always_serves(self, capsys):
        assert refuse_path("--out", None) is False
        assert refuse_path("--root", None, directory=True) is False
        assert capsys.readouterr().err == ""

    def test_a_writable_report_path_serves(self, tmp_path, capsys):
        assert refuse_path("--out", str(tmp_path / "r.json")) is False
        assert capsys.readouterr().err == ""

    def test_the_check_keeps_an_existing_report(self, tmp_path):
        # The check runs before any work; a run refused later for another
        # reason must not have emptied the previous report.
        path = tmp_path / "r.json"
        path.write_text("previous\n")
        assert refuse_path("--out", str(path)) is False
        assert path.read_text() == "previous\n"

    def test_an_existing_directory_serves_a_directory_flag(self, tmp_path, capsys):
        assert refuse_path("--root", str(tmp_path), directory=True) is False
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "make_bad,directory",
        [
            (lambda root: root / "missing" / "r.json", False),
            (lambda root: root, False),
            (lambda root: root / "file" / "r.json", False),
            (lambda root: root / "missing", True),
            (lambda root: root / "file", True),
        ],
        ids=["missing-parent", "a-directory", "parent-is-a-file", "missing-directory", "a-file-as-directory"],
    )
    def test_an_unusable_path_is_one_error_line(self, make_bad, directory, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        bad = str(make_bad(tmp_path))
        assert refuse_path("--flag", bad, directory=directory) is True
        err = capsys.readouterr().err
        assert err.startswith(f"error: --flag {bad}: ")
        assert len(err.splitlines()) == 1


class TestWriteReport:
    REPORT = {"b": [1, 2], "a": {"y": 1, "x": 0}}

    def test_render_sorts_keys_and_ends_with_a_newline(self):
        text = render_report(self.REPORT)
        assert text.endswith("}\n")
        assert list(json.loads(text)) == ["a", "b"]
        assert text == render_report(json.loads(text))

    def test_file_and_stdout_get_the_same_bytes(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(self.REPORT, str(path))
        out = io.StringIO()
        write_report(self.REPORT, None, stdout=out)
        assert path.read_text() == out.getvalue() == render_report(self.REPORT)
