"""Structural gate: each ``repro.crypto`` construction is written once.

Plain ``ast`` over ``src/`` (no fbslint rule), in the style of
``test_scheme_structure.py``: one streaming hash class, SHA-1 as the
FIPS 180 loop, one walk of the DES round-key tables, and the lane
kernels reached from the pipeline stages that pay for them and no more.
A fast path that comes back has to replace what is here, not fork it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CRYPTO = SRC / "crypto"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_one_class_streams_a_hash():
    streaming = [
        (path.relative_to(CRYPTO).as_posix(), cls.name)
        for path in sorted(CRYPTO.rglob("*.py"))
        for cls in ast.walk(_tree(path))
        if isinstance(cls, ast.ClassDef)
        and {"update", "digest", "copy"}
        <= {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
    ]
    assert streaming == [("_md.py", "MerkleDamgard")]


def test_sha1_compress_is_the_fips_loop_not_an_unroll():
    (compress,) = [
        func for func in _functions(_tree(CRYPTO / "sha1.py")) if func.name == "_compress"
    ]
    assert compress.end_lineno - compress.lineno + 1 <= 45


def test_one_function_walks_the_des_round_key_tables():
    walkers = [
        func.name
        for func in _functions(_tree(CRYPTO / "des.py"))
        if any(
            isinstance(node, ast.Name) and node.id == "_ROUND_KEY_LUTS"
            for node in ast.walk(func)
        )
    ]
    assert walkers == ["_raw_schedule"]


def test_protocol_reaches_the_lane_kernels_from_five_sites():
    # MAC on send and receive, CBC encrypt, CBC decrypt, and _decrypt's
    # single-lane route; header encoding is the scalar loop.
    kernels = sorted(
        node.attr
        for node in ast.walk(_tree(SRC / "core" / "protocol.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_vector"
        and node.attr.endswith("_many")
    )
    assert kernels == [
        "cbc_decrypt_many",
        "cbc_decrypt_many",
        "cbc_encrypt_many",
        "keyed_md5_many",
        "keyed_md5_many",
    ]


def test_the_vector_package_has_three_modules():
    modules = sorted(path.name for path in (CRYPTO / "vector").glob("*.py"))
    assert modules == ["__init__.py", "des.py", "md5.py"]
