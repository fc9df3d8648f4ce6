"""fbslint coverage for the transport boundary (ISSUE 8 satellite).

Three halves of the quarantine story:

* the FBS002 carve-out admits real-clock reads in
  ``repro.transport.udp`` *only* -- the identical source is flagged the
  moment it impersonates any other transport module;
* FBS010 still applies with full force to the carved-out module: async
  transport code must not block the event loop;
* the real ``src/repro/transport`` package is clean under the whole
  rule set with no baseline entries.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"
TRANSPORT = SRC / "repro" / "transport"


def lint_fixture(name: str):
    path = FIXTURES / name
    # The fixture's ``# fbslint: module=`` pragma supplies the logical
    # module; the filesystem path is irrelevant.
    return lint_source(
        path.read_text(encoding="utf-8"), path=name, logical_path=name
    )


class TestClockCarveOut:
    def test_udp_substrate_may_read_the_monotonic_clock(self):
        result = lint_fixture("fbs002_transport_ok.py")
        assert result.findings == [], [f.render() for f in result.findings]

    def test_identical_source_outside_udp_is_flagged(self):
        result = lint_fixture("fbs002_transport_bad.py")
        fired = [f for f in result.findings if f.rule_id == "FBS002"]
        assert len(fired) == 2, [f.render() for f in result.findings]
        assert {f.rule_id for f in result.findings} == {"FBS002"}

    def test_carve_out_is_exactly_one_module(self):
        source = FIXTURES.joinpath("fbs002_transport_ok.py").read_text(
            encoding="utf-8"
        )
        for module in (
            "repro.transport",
            "repro.transport.netsim",
            "repro.transport.channel",
            "repro.transport.runner",
            "repro.core.protocol",
        ):
            patched = source.replace(
                "# fbslint: module=repro.transport.udp",
                f"# fbslint: module={module}",
            )
            result = lint_source(
                patched, path="carveout.py", logical_path="carveout.py"
            )
            assert any(
                f.rule_id == "FBS002" for f in result.findings
            ), f"carve-out leaked into {module}"


class TestAsyncDiscipline:
    def test_awaiting_async_transport_code_is_clean(self):
        result = lint_fixture("fbs010_transport_ok.py")
        assert result.findings == [], [f.render() for f in result.findings]

    def test_blocking_async_transport_code_is_flagged(self):
        result = lint_fixture("fbs010_transport_bad.py")
        fired = [f for f in result.findings if f.rule_id == "FBS010"]
        # Direct time.sleep, the helper hiding one, socket.socket().
        assert len(fired) == 3, [f.render() for f in result.findings]
        assert {f.rule_id for f in result.findings} == {"FBS010"}

    def test_clock_carve_out_does_not_relax_fbs010(self):
        # Both fixtures impersonate repro.transport.udp: the module that
        # may read the clock still may not block the loop.
        ok = lint_fixture("fbs010_transport_ok.py")
        bad = lint_fixture("fbs010_transport_bad.py")
        assert not ok.findings and bad.findings


class TestRealPackage:
    def test_transport_sources_exist(self):
        assert (TRANSPORT / "udp.py").is_file()
        assert (TRANSPORT / "netsim.py").is_file()

    @pytest.mark.parametrize(
        "module", sorted(p.name for p in TRANSPORT.glob("*.py"))
    )
    def test_transport_module_is_clean(self, module):
        path = TRANSPORT / module
        result = lint_source(
            path.read_text(encoding="utf-8"),
            path=str(path),
            logical_path=f"src/repro/transport/{module}",
        )
        assert result.findings == [], [f.render() for f in result.findings]
