"""Structural gate: each ``repro.crypto`` construction is written once.

Plain ``ast`` over ``src/`` (no fbslint rule), in the style of
``test_scheme_structure.py``: one streaming hash class, SHA-1 as the
FIPS 180 loop, one walk of the DES round-key tables, one round-key
packing, a four-subscript scalar DES round, and one lane-or-scalar
choice per pipeline stage.
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
    assert walkers == ["_key_schedule"]


def test_no_key_selected_sp_tables():
    # PR 24: the round XORs two packed masks; 32k pre-XORed table
    # entries and the schedule that selected them are gone.
    names = {
        node.id
        for path in CRYPTO.rglob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Name)
    }
    assert "_SPX" not in names


def test_one_function_packs_round_keys():
    # Byte-aligning the 6-bit chunks is shifts by 8, 16 and 24; the lane
    # kernel reads DES.subkeys instead of shifting its own.
    packers = [
        (path.relative_to(CRYPTO).as_posix(), func.name)
        for path in (CRYPTO / "des.py", CRYPTO / "vector" / "des.py")
        for func in _functions(_tree(path))
        if {8, 16, 24}
        <= {
            node.right.value
            for node in ast.walk(func)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.LShift)
            and isinstance(node.right, ast.Constant)
        }
    ]
    assert packers == [("des.py", "_packed")]


def test_the_scalar_round_is_four_table_subscripts():
    (crypt,) = [
        func for func in _functions(_tree(CRYPTO / "des.py")) if func.name == "_crypt"
    ]
    (rounds,) = [node for node in ast.walk(crypt) if isinstance(node, ast.For)]
    subscripts = [node for node in ast.walk(rounds) if isinstance(node, ast.Subscript)]
    assert len(subscripts) == 4


def test_each_crypto_stage_chooses_its_kernel_in_one_place():
    # _macs (send and receive), _encrypt and _decrypt: each holds its
    # stage's one lane kernel call and is the only reader of _vector_ok.
    # The MAC lanes take the flows' key bytes, so _macs hands the states
    # to keying.mac_lanes, the one caller of keyed_md5_many.
    (endpoint,) = [
        node
        for node in _tree(SRC / "core" / "protocol.py").body
        if isinstance(node, ast.ClassDef) and node.name == "FBSEndpoint"
    ]
    kernels, readers = [], []
    for method in _functions(endpoint):
        for node in ast.walk(method):
            if isinstance(node, ast.Name) and node.id == "mac_lanes":
                kernels.append((node.id, method.name))
            if not isinstance(node, ast.Attribute):
                continue
            if ast.unparse(node.value) == "_vector" and node.attr.endswith("_many"):
                kernels.append((node.attr, method.name))
            elif node.attr == "_vector_ok" and isinstance(node.ctx, ast.Load):
                readers.append(method.name)
    assert sorted(kernels) == [
        ("cbc_decrypt_many", "_decrypt"),
        ("cbc_encrypt_many", "_encrypt"),
        ("mac_lanes", "_macs"),
    ]
    assert sorted(readers) == ["_decrypt", "_encrypt", "_macs"]
    callers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "keyed_md5_many(" in path.read_text(encoding="utf-8")
    ]
    assert callers == ["core/keying.py", "crypto/vector/md5.py"]


def test_the_lane_package_imports_its_kernels_outright():
    # numpy is a declared dependency: no import is guarded, so there is
    # no second, numpy-absent configuration of the endpoints.
    guarded = [
        (path.name, ast.unparse(handler.type))
        for path in sorted((CRYPTO / "vector").glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Try)
        for handler in node.handlers
        if handler.type is not None and "ImportError" in ast.unparse(handler.type)
    ]
    assert guarded == []


def test_the_md5_compress_is_generated_once_at_import():
    tree = _tree(CRYPTO / "vector" / "md5.py")
    at_import = [
        (statement.targets[0].id, ast.unparse(statement.value))
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and isinstance(statement.value, ast.Call)
        and ast.unparse(statement.value.func) == "_build_compress"
    ]
    assert at_import == [("_compress_packed", "_build_compress()")]
    compiles = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "compile"
    ]
    assert len(compiles) == 1


def test_the_vector_package_has_three_modules():
    modules = sorted(path.name for path in (CRYPTO / "vector").glob("*.py"))
    assert modules == ["__init__.py", "des.py", "md5.py"]
