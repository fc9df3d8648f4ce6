"""Trace CLI tests."""

import io

import pytest

from repro.traces.cli import main


@pytest.fixture(scope="module")
def small_trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "small.trace"
    out = io.StringIO()
    code = main(
        [
            "generate",
            "--kind",
            "lan",
            "--duration",
            "600",
            "--clients",
            "4",
            "--seed",
            "3",
            "-o",
            str(path),
        ],
        out=out,
    )
    assert code == 0
    return path


class TestGenerate:
    def test_generate_to_stdout(self):
        out = io.StringIO()
        code = main(
            ["generate", "--kind", "www", "--duration", "300", "--seed", "1", "-o", "-"],
            out=out,
        )
        assert code == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) > 10
        assert ">" in lines[-1]

    def test_generate_to_file(self, small_trace_file):
        text = small_trace_file.read_text()
        assert "udp" in text or "tcp" in text


class TestAnalyze:
    def test_analyze_file(self, small_trace_file):
        out = io.StringIO()
        code = main(["analyze", str(small_trace_file), "--threshold", "600"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "flows" in text
        assert "flow size CDF" in text

    def test_analyze_stdin(self, small_trace_file):
        out = io.StringIO()
        stdin = io.StringIO(small_trace_file.read_text())
        code = main(["analyze", "-"], out=out, stdin=stdin)
        assert code == 0
        assert "flows" in out.getvalue()


class TestSweep:
    def test_sweep(self, small_trace_file):
        out = io.StringIO()
        code = main(
            ["sweep", str(small_trace_file), "--thresholds", "300,600"], out=out
        )
        assert code == 0
        text = out.getvalue()
        assert "300" in text and "600" in text
        assert "repeated" in text


class TestCacheSim:
    def test_cachesim_send(self, small_trace_file):
        out = io.StringIO()
        code = main(
            [
                "cachesim",
                str(small_trace_file),
                "--host",
                "10.1.0.250",
                "--sizes",
                "2,32",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "TFKC" in text and "miss rate" in text

    def test_cachesim_receive(self, small_trace_file):
        out = io.StringIO()
        code = main(
            [
                "cachesim",
                str(small_trace_file),
                "--host",
                "10.1.0.250",
                "--side",
                "receive",
            ],
            out=out,
        )
        assert code == 0
        assert "RFKC" in out.getvalue()


class TestParser:
    def test_requires_command(self):
        assert main([]) == 2

    def test_rejects_unknown_kind(self):
        assert main(["generate", "--kind", "datacenter"]) == 2
