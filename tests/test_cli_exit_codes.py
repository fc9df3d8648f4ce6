"""Every ``python -m repro.<package>`` returns its documented exit code.

Each ``cli.py`` docstring promises "2 on usage errors"; all seven parse
through :func:`repro.obs.report.parse_cli`, so ``main`` *returns* that 2
(and 0 after ``--help``) instead of letting argparse's ``SystemExit``
unwind a caller that invoked it as a function.
"""

import importlib

import pytest

PACKAGES = ("analysis", "gateway", "load", "obs", "resilience", "traces", "transport")


@pytest.mark.parametrize("package", PACKAGES)
def test_main_returns_two_on_a_usage_error_and_zero_for_help(package, capsys):
    main = importlib.import_module(f"repro.{package}.cli").main
    assert main(["--no-such-flag"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "{trace}", "--thresholds", "300,abc"],
        ["cachesim", "{trace}", "--host", "10.0.0.1", "--sizes", "2,x"],
        ["analyze", "{missing}"],
        ["cachesim", "{trace}", "--host", "notanip"],
        ["cachesim", "{trace}", "--host", "10.1.0.250", "--sizes", "0"],
        ["analyze", "{trace}", "--threshold", "0"],
        ["analyze", "{trace}", "--threshold", "nan"],
        ["sweep", "{trace}", "--thresholds", "300,nan"],
        ["analyze", "{garbage}"],
        ["cachesim", "{garbage}", "--host", "10.0.0.1"],
        ["sweep", "{garbage}"],
        ["analyze", "{nan}"],
    ],
    ids=[
        "bad-threshold-list", "bad-size-list", "unreadable-trace",
        "bad-host", "zero-size", "zero-threshold", "nan-threshold",
        "nan-in-threshold-list", "malformed-trace-analyze",
        "malformed-trace-cachesim", "malformed-trace-sweep",
        "nan-time-in-trace",
    ],
)
def test_traces_bad_list_or_unreadable_trace_is_a_usage_error(argv, tmp_path, capsys):
    from repro.traces.cli import main

    trace = tmp_path / "t.trace"
    trace.write_text("")
    garbage = tmp_path / "garbage.trace"
    garbage.write_text("# a comment\ngarbage line here\n")
    nan = tmp_path / "nan.trace"
    nan.write_text("nan 10.0.0.1.1000 > 10.0.0.2.80: tcp 100\n")
    paths = {
        "trace": str(trace),
        "missing": str(tmp_path / "no-such-file"),
        "garbage": str(garbage),
        "nan": str(nan),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if "{garbage}" in argv:
        # One line naming the file and the line, as for an unopenable trace.
        assert err.splitlines() == [
            f"error: {garbage}: line 2: malformed trace line: 'garbage line here'"
        ]


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-tenants", "0"], ["--tenants", "157"], ["--queue-depth", "-1"],
        ["--flows", "-1"], ["--rounds", "-2"],
    ],
    ids=[
        "empty-table", "past-the-address-plan", "negative-queue",
        "negative-flows", "negative-rounds",
    ],
)
def test_gateway_value_the_workload_cannot_run_with_is_a_usage_error(argv, capsys):
    from repro.gateway.cli import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "package,argv",
    [
        ("load", ["--smoke", "--datagrams", "-1"]),
        ("load", ["--smoke", "--duration", "-5"]),
        ("load", ["--smoke", "--batch", "-3"]),
        ("transport", ["--datagrams", "-1"]),
        ("load", ["--smoke", "--duration", "nan"]),
        ("transport", ["--timeout", "0"]),
        ("transport", ["--timeout", "nan"]),
        ("traces", ["generate", "--clients", "0"]),
    ],
    ids=[
        "load-negative-datagrams", "load-negative-duration", "load-negative-batch",
        "load-nan-duration", "transport-negative-datagrams", "transport-zero-timeout",
        "transport-nan-timeout", "traces-no-clients",
    ],
)
def test_a_number_the_run_cannot_use_is_a_usage_error(package, argv, capsys):
    # Each was a clamp, a silent slice or a traceback: one argparse type
    # (``obs.report.number``) now refuses it before any work.
    main = importlib.import_module(f"repro.{package}.cli").main
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_a_workload_refuses_a_negative_datagram_cap():
    from repro.traces.registry import build_workload

    with pytest.raises(ValueError, match="non-negative"):
        build_workload("smoke", seed=0, datagrams=-1)


def test_load_trace_out_directory_is_created_or_refused_up_front(tmp_path, capsys):
    from repro.load.cli import main

    argv = ["--smoke", "--workers", "1", "--out", str(tmp_path / "report.json")]
    missing = tmp_path / "not" / "there"
    assert main(argv + ["--trace-out", str(missing)]) == 0
    assert sorted(path.suffix for path in missing.iterdir()) == [".jsonl"]
    capsys.readouterr()
    # A path that cannot become a directory: one error line, no worker started.
    blocked = tmp_path / "report.json" / "traces"
    assert main(argv + ["--trace-out", str(blocked)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trace-out") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def _never(*_args, **_kwargs):
    raise AssertionError("the workload ran before the path was checked")


@pytest.mark.parametrize(
    "module,work,argv",
    [
        ("repro.load.cli", "verify_merge", ["--smoke", "--workers", "1", "--out", "{bad}"]),
        ("repro.gateway.cli", "run_gateway_workload", ["--out", "{bad}"]),
        ("repro.resilience.cli", "run_campaign", ["--smoke", "--out", "{bad}"]),
        ("repro.transport.cli", "run_echo", ["--out", "{bad}"]),
        ("repro.traces.cli", "run_sweep", ["sweep", "--profile", "smoke", "--out", "{bad}"]),
        ("repro.obs.doccheck", "run_doc_checks", ["check-docs", "--root", "{bad}"]),
        ("repro.traces.cli", "CampusLanWorkload", ["generate", "--output", "{bad}"]),
    ],
    ids=[
        "load", "gateway", "resilience", "transport", "traces-sweep", "obs-check-docs",
        "traces-generate",
    ],
)
def test_an_unusable_path_is_refused_before_any_work(module, work, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(importlib.import_module(module), work, _never)
    package = module.split(".")[1]
    main = importlib.import_module(f"repro.{package}.cli").main
    bad = str(tmp_path / "missing" / "r.json")
    assert main([arg.format(bad=bad) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2]} {bad}: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "module,work,argv",
    [
        ("repro.load.cli", "verify_merge", ["--smoke", "--workers", "1", "--out", "{dir}"]),
        ("repro.gateway.cli", "run_gateway_workload", ["--out", "{dir}"]),
        ("repro.resilience.cli", "run_campaign", ["--smoke", "--out", "{dir}"]),
        ("repro.transport.cli", "run_echo", ["--out", "{dir}"]),
        ("repro.traces.cli", "run_sweep", ["sweep", "--profile", "smoke", "--out", "{dir}"]),
        ("repro.obs.doccheck", "run_doc_checks", ["check-docs", "--root", "{file}"]),
        ("repro.traces.cli", "CampusLanWorkload", ["generate", "--output", "{dir}"]),
    ],
    ids=[
        "load", "gateway", "resilience", "transport", "traces-sweep", "obs-check-docs",
        "traces-generate",
    ],
)
def test_a_path_of_the_wrong_kind_is_refused_before_any_work(module, work, argv, tmp_path, monkeypatch, capsys):
    # A report path naming a directory, or a docs root naming a file.
    monkeypatch.setattr(importlib.import_module(module), work, _never)
    package = module.split(".")[1]
    main = importlib.import_module(f"repro.{package}.cli").main
    (tmp_path / "README.md").write_text("")
    paths = {"dir": str(tmp_path), "file": str(tmp_path / "README.md")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-2]} {argv[-1].format(**paths)}: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1
