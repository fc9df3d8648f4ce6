"""The real ``src/repro/transport`` package is clean under fbslint's key
taint.  Its clock and its event loop are checked on the running code:
the report-determinism differential runs the transport demos with
every wall clock 10**6 s ahead on one side (the transport's ``now`` may
differ, the report may not), and every test runs under
``tests/shim/loopguard.py``.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

SRC = Path(__file__).parents[2] / "src"
TRANSPORT = SRC / "repro" / "transport"


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
        assert result == [], [f.render() for f in result]
