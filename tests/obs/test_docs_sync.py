"""Docs stay in sync with the code: coverage + link checks."""

import os

import shutil

from repro.obs.doccheck import (
    check_backticked,
    check_markdown_links,
    default_markdown_files,
    observability_names,
    run_doc_checks,
)
from repro.obs.events import EVENT_TYPES
from repro.obs.registry import METRIC_CATALOG

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
GUIDE = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")


def check_observability_doc(path):
    return check_backticked(path, observability_names())


class TestCoverage:
    def test_real_guide_covers_everything(self):
        assert check_observability_doc(GUIDE) == []

    def test_guide_enumerates_all_eleven_events_and_twenty_one_metrics(self):
        with open(GUIDE, encoding="utf-8") as fp:
            text = fp.read()
        for cls in EVENT_TYPES:
            assert f"`{cls.__name__}`" in text
        for name in METRIC_CATALOG:
            assert f"`{name}`" in text

    def test_missing_metric_is_reported(self, tmp_path):
        doc = tmp_path / "OBSERVABILITY.md"
        lines = [f"`{cls.__name__}`" for cls in EVENT_TYPES]
        lines += [f"`{name}`" for name in METRIC_CATALOG if name != "cache_hits"]
        doc.write_text("\n".join(lines))
        problems = check_observability_doc(str(doc))
        assert len(problems) == 1
        assert "cache_hits" in problems[0]

    def test_missing_event_is_reported(self, tmp_path):
        doc = tmp_path / "OBSERVABILITY.md"
        lines = [f"`{cls.__name__}`" for cls in EVENT_TYPES[1:]]
        lines += [f"`{name}`" for name in METRIC_CATALOG]
        doc.write_text("\n".join(lines))
        problems = check_observability_doc(str(doc))
        assert len(problems) == 1
        assert EVENT_TYPES[0].__name__ in problems[0]

    def test_absent_file_is_one_problem(self, tmp_path):
        problems = check_observability_doc(str(tmp_path / "nope.md"))
        assert problems == [f"{tmp_path / 'nope.md'}: missing"]


class TestDeploymentGuide:
    def test_removed_knob_is_reported_in_the_cli_wording(self, tmp_path):
        # A temp copy of the real repo docs with one transport knob and
        # one gateway reason un-backticked: exactly those two problems,
        # spelled as the per-package checkers spelled them.
        shutil.copytree(os.path.join(REPO_ROOT, "docs"), tmp_path / "docs")
        guide = tmp_path / "docs" / "DEPLOYMENT.md"
        text = guide.read_text(encoding="utf-8")
        assert "`recv_queue`" in text and "`backpressure`" in text
        guide.write_text(
            text.replace("`recv_queue`", "recv_queue").replace(
                "`backpressure`", "backpressure"
            ),
            encoding="utf-8",
        )
        problems = [p for p in run_doc_checks(str(tmp_path)) if "link" not in p]
        assert problems == [
            f"{guide}: UdpTransportConfig knob `recv_queue` is not documented",
            f"{guide}: gateway reason `backpressure` is not documented",
        ]


class TestLinks:
    def test_broken_relative_link_detected(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [the guide](missing/file.md) for details")
        problems = check_markdown_links([str(page)], str(tmp_path))
        assert len(problems) == 1
        assert "missing/file.md" in problems[0]

    def test_external_and_anchor_links_skipped(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[a](https://example.com) [b](mailto:x@y.z) [c](#section)"
        )
        assert check_markdown_links([str(page)], str(tmp_path)) == []

    def test_anchored_relative_link_resolves_to_file(self, tmp_path):
        (tmp_path / "other.md").write_text("# Section\n")
        page = tmp_path / "page.md"
        page.write_text("[jump](other.md#section)")
        assert check_markdown_links([str(page)], str(tmp_path)) == []

    def test_default_set_spans_top_level_and_docs(self):
        files = default_markdown_files(REPO_ROOT)
        names = {os.path.relpath(p, REPO_ROOT) for p in files}
        assert "README.md" in names
        assert os.path.join("docs", "OBSERVABILITY.md") in names
        assert os.path.join("docs", "ARCHITECTURE.md") in names


def test_repo_passes_all_doc_checks():
    assert run_doc_checks(REPO_ROOT) == []
