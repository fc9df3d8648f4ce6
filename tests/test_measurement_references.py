"""Structural gate: no document names a measurement that is gone.

Every ``benchmarks/bench_<name>.py`` and ``BENCH_<name>.json`` named in
the docs, the build files or ``src/`` must exist, and the one checked-in
``BENCH_*.json`` is the simulated trace sweep: a cost is measured by
``BENCHMARK.json`` + ``benchmarks/budget/`` and nowhere else.
``CHANGES.md``, ``ROADMAP.md`` and ``benchmarks/budget/`` keep the old
names as history and are not scanned.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "Makefile",
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / "docs").glob("*.md")),
    *sorted((ROOT / "src").rglob("*.py")),
]
# Token pattern -> directory the named file must be in.  A smoke
# target's scratch copy under /tmp is not the checked-in file.
NAMED = {
    re.compile(r"\bbench_\w+\.py\b"): ROOT / "benchmarks",
    re.compile(r"(?<!/tmp/)\bBENCH_\w+\.json\b"): ROOT,
}


def _dangling():
    for path in SCANNED:
        text = path.read_text()
        for pattern, home in NAMED.items():
            for name in pattern.findall(text):
                if not (home / name).is_file():
                    yield path.relative_to(ROOT).as_posix(), name


def test_every_named_bench_script_and_schema_exists():
    assert sorted(set(_dangling())) == []


def test_the_trace_sweep_is_the_only_checked_in_bench_schema():
    assert sorted(p.name for p in ROOT.glob("BENCH_*.json")) == ["BENCH_traces.json"]
