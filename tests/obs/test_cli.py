"""``python -m repro.obs``: exit codes and output shapes."""

import json
import os

from repro.obs import CacheHit, CacheMiss, DatagramAccepted, JsonlSink, Tracer
from repro.obs.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def write_trace(path):
    clock = [0.0]
    with JsonlSink(str(path)) as sink:
        tracer = Tracer(sink, now=lambda: clock[0])
        for i in range(3):
            clock[0] = float(i)
            tracer.emit(CacheHit(cache="TFKC"))
        tracer.emit(CacheMiss(cache="TFKC"))
        tracer.emit(DatagramAccepted(sfl=1, size=100))


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "summarize" in capsys.readouterr().err


def test_summarize_renders_cache_table(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace(trace)
    assert main(["summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "records: 5   time span: 0.000s .. 2.000s" in out
    assert "TFKC" in out and "miss rate" in out
    assert "1 accepted" in out
    row = next(line.split() for line in out.splitlines() if line.startswith("TFKC"))
    assert row == ["TFKC", "4", "3", "1", "25.000%", "0"]


def test_summarize_lists_a_cache_that_only_missed(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    with JsonlSink(str(trace)) as sink:
        Tracer(sink).emit(CacheMiss(cache="PVC"))
    assert main(["summarize", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "PVC          1     0       1   100.000%        0" in out


def test_summarize_json_is_parseable(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace(trace)
    assert main(["summarize", str(trace), "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["counters"] == {
        "bytes_accepted": 100,
        "cache_hits{cache=TFKC}": 3,
        "cache_misses{cache=TFKC}": 1,
        "datagrams_accepted": 1,
    }


def test_summarize_missing_file_fails(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "absent.jsonl")]) == 1
    assert "error" in capsys.readouterr().err


def test_summarize_corrupt_file_fails(tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_text("not json\n")
    assert main(["summarize", str(trace)]) == 1
    assert "bad.jsonl:1" in capsys.readouterr().err


def test_check_docs_passes_on_this_repo(capsys):
    assert main(["check-docs", "--root", REPO_ROOT]) == 0
    assert "check-docs: ok" in capsys.readouterr().out


def test_check_docs_fails_on_empty_root(tmp_path, capsys):
    assert main(["check-docs", "--root", str(tmp_path)]) == 1
    assert "OBSERVABILITY.md" in capsys.readouterr().err


def test_the_selftest_flag_is_gone(capsys):
    assert main(["--selftest"]) == 2
    assert "error:" in capsys.readouterr().err
