"""The real ``src/repro/gateway`` package is clean under fbslint's key
taint.  That its serve loop never blocks is checked on the running
code: every test here and in ``tests/gateway`` runs under
``tests/shim/loopguard.py``.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

SRC = Path(__file__).parents[2] / "src"
GATEWAY = SRC / "repro" / "gateway"


class TestRealPackage:
    def test_gateway_sources_exist(self):
        assert (GATEWAY / "server.py").is_file()
        assert (GATEWAY / "tenants.py").is_file()

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
        assert result == [], [f.render() for f in result]
