"""fbslint coverage for the vector datapath.

Two halves: FBS001 fires on key material laundered through ndarrays,
and the real ``repro.crypto.vector`` modules are clean.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

SRC = Path(__file__).parents[2] / "src"
VECTOR = SRC / "repro" / "crypto" / "vector"


# -- FBS001: taint through ndarrays ------------------------------------------

_NDARRAY_LEAK = (
    "import numpy as np\n"
    "def pack(kdf, flow_key_src):\n"
    "    mk = kdf.mac_key(flow_key_src)\n"
    "    lanes = np.frombuffer(mk, dtype=np.uint8)\n"
    "    print(lanes.tobytes())\n"
)

_NDARRAY_COMPARE = (
    "import numpy as np\n"
    "def verify(kdf, flow_key_src, header_mac):\n"
    "    mk = kdf.mac_key(flow_key_src)\n"
    "    row = np.frombuffer(mk, dtype=np.uint8).astype(np.uint32)\n"
    "    return row.tobytes() == header_mac\n"
)

_NDARRAY_CLEAN = (
    "import numpy as np\n"
    "def stamp(confounders):\n"
    "    head = np.asarray(confounders, dtype=np.uint32)\n"
    "    return head.astype(np.uint8).tobytes()\n"
)


# The DES lane kernel's shape: round masks packed into an array, read
# through a byte view, gathered per lane with take (function and method
# forms).
_MASK_TAKE_LEAK = (
    "import numpy as np\n"
    "def rows(kdf, flow_key_src, lane_index):\n"
    "    ek = kdf.encryption_key(flow_key_src)\n"
    "    masks = np.frombuffer(ek, dtype='<u8')\n"
    "    lanes = np.take(masks.view(np.uint8), lane_index)\n"
    "    print(lanes)\n"
)

_MASK_TAKE_COMPARE = (
    "import numpy as np\n"
    "def same(kdf, flow_key_src, lane_index, other):\n"
    "    ek = kdf.encryption_key(flow_key_src)\n"
    "    masks = np.frombuffer(ek, dtype='<u8').view(np.uint8)\n"
    "    return masks.take(lane_index).tobytes() == other\n"
)

_TABLE_TAKE_CLEAN = (
    "import numpy as np\n"
    "def gather(table, words):\n"
    "    index = words.view(np.uint8) + 256\n"
    "    parts = np.take(table, index)\n"
    "    print(parts.view(np.uint8))\n"
    "    return parts.take(0).tobytes() == b''\n"
)


class TestNdarrayTaint:
    def test_key_through_frombuffer_tobytes_leaks(self):
        result = lint_source(
            _NDARRAY_LEAK, logical_path="src/repro/crypto/vector/md5.py"
        )
        assert len(result) == 1

    def test_key_through_astype_compare_is_timing_channel(self):
        result = lint_source(
            _NDARRAY_COMPARE, logical_path="src/repro/crypto/vector/md5.py"
        )
        assert len(result) == 1
        assert "constant_time_equal" in result[0].message

    def test_key_masks_through_view_and_take_leak(self):
        result = lint_source(
            _MASK_TAKE_LEAK, logical_path="src/repro/crypto/vector/des.py"
        )
        assert len(result) == 1

    def test_key_masks_through_take_method_compare_is_timing_channel(self):
        result = lint_source(
            _MASK_TAKE_COMPARE, logical_path="src/repro/crypto/vector/des.py"
        )
        assert len(result) == 1
        assert "constant_time_equal" in result[0].message

    def test_public_tables_through_view_and_take_are_clean(self):
        result = lint_source(
            _TABLE_TAKE_CLEAN, logical_path="src/repro/crypto/vector/des.py"
        )
        assert result == []

    def test_public_fields_through_ndarrays_are_clean(self):
        result = lint_source(
            _NDARRAY_CLEAN, logical_path="src/repro/crypto/vector/md5.py"
        )
        assert result == []


# Key material in ndarray form handed to a helper that renders or
# compares it: the array rules and the call-following rules are one
# engine, so the witness runs from the derivation, through the array
# expression, into the helper's sink.  ``{expr}`` is built from ``ek``
# (secret) or ``table`` (public); the sink sits in ``sink()``.
_THROUGH_HELPER = (
    "import numpy as np\n"
    "def lanes(kdf, flow_key_src, table, other, log):\n"
    "    ek = kdf.encryption_key(flow_key_src)\n"
    "    sink({expr}, other, log)\n"
    "def sink(rows, other, log):\n"
    "    {use}\n"
)
_ARRAY_FORMS = {
    "frombuffer": ("np.frombuffer({v}, dtype=np.uint8)", "print(rows)"),
    "astype_tobytes": (
        "np.frombuffer({v}, dtype=np.uint8).astype(np.uint32).tobytes()",
        "log.debug('lanes %s', rows)",
    ),
    "take": ("np.take(np.frombuffer({v}, dtype='<u8'), 0)", "return rows == other"),
    "view": ("np.frombuffer({v}, dtype='<u8').view(np.uint8)", "print(rows)"),
}


@pytest.mark.parametrize("form", sorted(_ARRAY_FORMS))
class TestNdarrayTaintThroughHelper:
    def _lint(self, form, value):
        expr, use = _ARRAY_FORMS[form]
        return lint_source(
            _THROUGH_HELPER.format(expr=expr.format(v=value), use=use),
            path="des.py",
            logical_path="src/repro/crypto/vector/des.py",
        )

    def test_key_array_reaching_a_helper_sink_leaks(self, form):
        result = self._lint(form, "ek")
        assert [f.line for f in result] == [6]
        assert result[0].flow == (
            "encryption_key() at des.py:3",
            "passed to sink() as 'rows' from des.py:4",
        )

    def test_public_array_reaching_the_same_helper_is_clean(self, form):
        assert self._lint(form, "table") == []


# -- the real vector package is clean ------------------------------------------

@pytest.mark.parametrize("name", ["__init__.py", "des.py", "md5.py"])
def test_vector_module_self_analysis_clean(name):
    path = VECTOR / name
    result = lint_source(
        path.read_text(encoding="utf-8"),
        logical_path=f"src/repro/crypto/vector/{name}",
    )
    assert result == [], [f.render() for f in result]
