"""fbslint coverage for the gateway package (ISSUE 9 satellite).

Two halves:

* FBS010 applies with full force to the gateway's shared serve loop:
  async gateway code must not block the event loop, directly or through
  a helper;
* the real ``src/repro/gateway`` package is clean under the whole rule
  set with no baseline entries.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"
GATEWAY = SRC / "repro" / "gateway"


def lint_fixture(name: str):
    path = FIXTURES / name
    # The fixture's ``# fbslint: module=`` pragma supplies the logical
    # module; the filesystem path is irrelevant.
    return lint_source(
        path.read_text(encoding="utf-8"), path=name, logical_path=name
    )


class TestAsyncDiscipline:
    def test_awaiting_serve_loop_is_clean(self):
        result = lint_fixture("fbs010_gateway_ok.py")
        assert result.findings == [], [f.render() for f in result.findings]

    def test_blocking_serve_loop_is_flagged(self):
        result = lint_fixture("fbs010_gateway_bad.py")
        fired = [f for f in result.findings if f.rule_id == "FBS010"]
        # Helper-hidden time.sleep, direct time.sleep, sync open().
        assert len(fired) == 3, [f.render() for f in result.findings]
        assert {f.rule_id for f in result.findings} == {"FBS010"}

    def test_gateway_has_no_clock_carve_out(self):
        # The FBS002 carve-out is exactly repro.transport.udp; gateway
        # modules reading a wall clock must be flagged.
        source = (
            "# fbslint: module=repro.gateway.server\n"
            "import time\n\n\n"
            "def now():\n"
            "    return time.monotonic()\n"
        )
        result = lint_source(
            source, path="gw_clock.py", logical_path="gw_clock.py"
        )
        assert any(f.rule_id == "FBS002" for f in result.findings)


class TestRealPackage:
    def test_gateway_sources_exist(self):
        assert (GATEWAY / "server.py").is_file()
        assert (GATEWAY / "eviction.py").is_file()

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in GATEWAY.glob("*.py"))
    )
    def test_gateway_module_is_clean(self, module):
        path = GATEWAY / module
        result = lint_source(
            path.read_text(encoding="utf-8"),
            path=str(path),
            logical_path=f"src/repro/gateway/{module}",
        )
        assert result.findings == [], [f.render() for f in result.findings]
