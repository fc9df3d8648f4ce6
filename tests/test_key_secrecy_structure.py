"""Key secrecy by type: who may open a key, and what may render one.

Every key producer returns a :class:`repro.crypto.secret.Secret`, which
renders ``<secret>`` and refuses comparison, hashing and every
conversion to bytes or ints (``tests/crypto/test_secret.py``).  A key's
bytes are reachable through ``reveal`` alone, so two rules, plain
``ast`` over ``src/repro``, close the argument:

* **the reveal rule**: ``reveal`` (the method, the coercion, or an
  import of it), the :class:`Secret`'s mangled slot, and reads of
  :class:`~repro.core.keying.FlowCryptoState`'s key material
  (``mac_key``, ``_prefix``, ``_inner``, ``_outer``, ``_cipher``) appear
  only in :data:`REVEAL_ZONE`: the crypto layer, the keying module and
  the adversary, which holds stolen keys by design.
  ``KeyDerivation.mac_key(...)`` is the producer, not a read;
* **the raw-zone rule**: inside :data:`RAW_ZONE`, where key bytes are
  open, nothing renders: no ``print``, no logging call, no ``repr``, and
  no f-string outside a ``raise`` or the MD5 lane code generator (which
  formats loop indices into source text, never a runtime value).

Each rule bites on a planted line in a real module.
"""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

REVEAL_ZONE = ("crypto/", "core/keying.py", "attacks/")
RAW_ZONE = ("crypto/", "core/keying.py")
#: Spellings that open a key: the method and the coercion, the slot.
OPENERS = {"reveal", "_Secret__key"}
#: FlowCryptoState's key material (plain bytes, or state built from it).
KEY_MATERIAL = {"mac_key", "_prefix", "_inner", "_outer", "_cipher"}
LOG_METHODS = {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}
#: ``(module, function)`` allowed f-strings outside a ``raise``.
CODE_GENERATORS = {("crypto/vector/md5.py", "_packed_source")}


def _in(relative, zone):
    return relative.startswith(zone) if zone.endswith("/") else relative == zone


def opens_a_key(node):
    """What ``node`` opens, if anything."""
    if isinstance(node, ast.Attribute):
        if node.attr in OPENERS:
            return node.attr
        if node.attr in KEY_MATERIAL and ast.unparse(node.value) != "KeyDerivation":
            return node.attr
    if isinstance(node, ast.Name) and node.id in OPENERS:
        return node.id
    if isinstance(node, ast.ImportFrom):
        return next((a.name for a in node.names if a.name in OPENERS), None)
    if isinstance(node, ast.Constant) and node.value in OPENERS | KEY_MATERIAL:
        return node.value  # getattr(key, "reveal")
    return None


def _walk(node, raising=False, function=None):
    """Every node under ``node``, with whether a ``raise`` holds it and
    the name of the innermost function around it."""
    yield node, raising, function
    raising = raising or isinstance(node, ast.Raise)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, raising, function)


def renders(relative, node, raising, function):
    """What ``node`` renders, if anything, in the raw-key zone."""
    if isinstance(node, ast.Call):
        target = ast.unparse(node.func)
        if target in ("print", "repr"):
            return target
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in LOG_METHODS
            and "log" in ast.unparse(node.func.value).lower()
        ):
            return target
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
            a.name for a in node.names
        ]
        if any(module.split(".")[0] == "logging" for module in modules):
            return "import logging"
    if isinstance(node, ast.JoinedStr) and not raising:
        if (relative, function) not in CODE_GENERATORS:
            return "f-string"
    return None


def opened(relative, source):
    """``line:col name`` of each key opening in ``source`` at ``relative``."""
    if any(_in(relative, zone) for zone in REVEAL_ZONE):
        return []
    return sorted(
        f"{node.lineno}:{node.col_offset + 1} {what}"
        for node in ast.walk(ast.parse(source))
        for what in [opens_a_key(node)]
        if what
    )


def rendered(relative, source):
    """``line:col what`` of each rendering in ``source`` at ``relative``."""
    if not any(_in(relative, zone) for zone in RAW_ZONE):
        return []
    return sorted(
        f"{node.lineno}:{node.col_offset + 1} {what}"
        for node, raising, function in _walk(ast.parse(source))
        for what in [renders(relative, node, raising, function)]
        if what
    )


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")


def _planted(relative, anchor, line):
    """The real module with ``line`` inserted after the first line
    containing ``anchor``, at that line's indentation; and its number."""
    lines = (SRC / relative).read_text(encoding="utf-8").splitlines()
    at = next(i for i, text in enumerate(lines) if anchor in text) + 1
    indent = lines[at - 1][: len(lines[at - 1]) - len(lines[at - 1].lstrip())]
    lines.insert(at, indent + line)
    return "\n".join(lines), at + 1


def test_only_the_crypto_layer_keying_and_the_adversary_open_a_key():
    homes = dict(_modules())
    assert len(homes) > 100
    assert [f"{r}:{at}" for r, source in homes.items() for at in opened(r, source)] == []
    # The zone is not empty: the rule guards real openings.
    inside = [r for r, source in homes.items() if opened(f"x/{r}", source)]
    assert {"crypto/secret.py", "core/keying.py"} <= set(inside)


def test_the_raw_key_zone_renders_nothing():
    found = [f"{r}:{at}" for r, source in _modules() for at in rendered(r, source)]
    assert found == []


@pytest.mark.parametrize(
    "relative, anchor, line, what",
    [
        ("core/protocol.py", "flow_key = self.kdf.flow_key(", "flow_key.reveal().hex()", "reveal"),
        ("core/protocol.py", "macs = _lanes(mac_lanes,", "keys = [state.mac_key for state in states]",
         "mac_key"),
        ("gateway/server.py", "from __future__ import annotations", "from repro.crypto.secret import reveal", "reveal"),
        ("baselines/sealed.py", "cipher_key, mac_key = keys", "mac_key = mac_key._Secret__key",
         "_Secret__key"),
    ],
    ids=["reveal", "mac_key read", "coercion import", "mangled slot"],
)
def test_the_reveal_rule_fails_on_a_planted_opening(relative, anchor, line, what):
    assert opened(relative, (SRC / relative).read_text(encoding="utf-8")) == []
    source, at = _planted(relative, anchor, line)
    (hit,) = opened(relative, source)
    assert hit.startswith(f"{at}:") and hit.endswith(f" {what}")


@pytest.mark.parametrize(
    "relative, anchor, line, what",
    [
        ("crypto/des.py", "key = reveal(key)", "print(key)", "print"),
        ("crypto/secret.py", "self.__key = key", "logging.getLogger(__name__).debug('%s', self)",
         "logging.getLogger(__name__).debug"),
        ("core/keying.py", "self.mac_key = reveal(flow_key)", "label = f'{self.mac_key}'",
         "f-string"),
        ("crypto/mac.py", "key = reveal(key)", "tag = repr(key)", "repr"),
    ],
    ids=["print", "log.debug", "f-string", "repr"],
)
def test_the_raw_zone_rule_fails_on_a_planted_rendering(relative, anchor, line, what):
    source, at = _planted(relative, anchor, line)
    (hit,) = rendered(relative, source)
    assert hit.startswith(f"{at}:") and hit.endswith(f" {what}")
