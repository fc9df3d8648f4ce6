"""The key-leak census: thirteen ways code near a derivation could render
``K_f``, each planted in the real ``FBSEndpoint._flow_state``.

The shapes are the ones a whole-program taint check used to flag (print,
f-string, logging, a variable-time compare, the ndarray and packed-int
lanes, and code that runs later or at definition time: a lambda, a
default value, a class body, a method).  Each cell plants one shape
right after ``K_f`` is derived and runs one real datagram from alice to
bob.  Because ``K_f`` is a :class:`~repro.crypto.secret.Secret`, a shape
either raises :class:`TypeError` (*caught*: the send fails) or renders
``<secret>`` and no spelling of the key (*cannot leak*).  With a
``bytes`` key every cell fails.  EXPERIMENTS.md "Key secrecy by type"
has the census table.
"""

import inspect
import logging
import textwrap

import numpy as np
import pytest

from repro.core import protocol
from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.core.protocol import FBSEndpoint
from tests.shim import canary

DERIVATION = "flow_key = self.kdf.flow_key("

#: shape -> (what the key type makes of it, the planted lines).
SHAPES = {
    "print": ("renders", "print(flow_key)"),
    "f-string": ("renders", 'label = f"key={flow_key!r}"\nprint(label)'),
    "log.debug": ("renders", 'log.debug("derived %s", flow_key)'),
    "== on a slice": ("raises", 'enc = flow_key[:8]\nif enc == b"\\0" * 8:\n    print(enc)'),
    "ndarray printed": (
        "raises",
        "lanes = np.frombuffer(flow_key, dtype=np.uint8)\n"
        "print(lanes.astype(np.uint32).tobytes())",
    ),
    "ndarray to a printing helper": (
        "raises",
        "lanes = np.frombuffer(flow_key, dtype=np.uint8)\n"
        "_show(np.take(lanes.view(np.uint32), 0))",
    ),
    "lambda body": ("renders", 'audit = lambda: log.debug("key %s", flow_key)\naudit()'),
    "default value": ("renders", "def tagged(tag=repr(flow_key)):\n    return tag\nprint(tagged())"),
    "class body": ("renders", "class Debug:\n    banner = print(flow_key)"),
    "method closure": (
        "renders",
        "class Debug:\n    def dump(self):\n        print(flow_key)\nDebug().dump()",
    ),
    "packed int printed": ("raises", 'packed = int.from_bytes(flow_key, "little")\nprint(packed)'),
    "packed lanes printed": (
        "raises",
        'packed = int.from_bytes(flow_key, "little")\n'
        'print((packed << 64 | packed).to_bytes(32, "little"))',
    ),
    "packed compare": ("raises", 'packed = int.from_bytes(flow_key, "little")\nprint(packed == 0)'),
}


def plant(monkeypatch, lines):
    """Replace ``FBSEndpoint._flow_state`` by its own source with
    ``lines`` after the derivation; return the keys the plant saw."""
    source = textwrap.dedent(inspect.getsource(FBSEndpoint._flow_state)).splitlines()
    at = next(i for i, line in enumerate(source) if DERIVATION in line) + 1
    indent = " " * (len(source[at - 1]) - len(source[at - 1].lstrip()))
    planted = lines.splitlines() + ["_seen.append(flow_key)"]
    source[at:at] = [indent + line for line in planted]
    seen = []
    namespace = dict(
        vars(protocol), np=np, log=logging.getLogger("repro.core.session"), _show=print,
        _seen=seen,
    )
    exec(compile("\n".join(source), protocol.__file__, "exec"), namespace)
    monkeypatch.setattr(FBSEndpoint, "_flow_state", namespace["_flow_state"])
    return seen


def one_datagram():
    domain = FBSDomain(seed=0, config=FBSConfig())
    alice = domain.make_endpoint(Principal.from_name("alice"), now=lambda: 0.0)
    bob = domain.make_endpoint(Principal.from_name("bob"), now=lambda: 0.0)
    wire = alice.protect(b"census", bob.principal, secret=True)
    return bob.unprotect(wire, alice.principal, secret=True)


def test_the_census_has_thirteen_shapes_six_caught_seven_rendered():
    kinds = [kind for kind, _ in SHAPES.values()]
    assert (len(kinds), kinds.count("raises"), kinds.count("renders")) == (13, 6, 7)


@pytest.mark.parametrize("shape", SHAPES)
def test_a_planted_shape_is_caught_or_renders_only_secret(shape, monkeypatch, capsys, caplog):
    kind, lines = SHAPES[shape]
    seen = plant(monkeypatch, lines)
    if kind == "raises":
        with pytest.raises(TypeError):
            one_datagram()
        return
    with caplog.at_level(logging.DEBUG, logger="repro.core.session"):
        assert one_datagram() == b"census"
    output = (capsys.readouterr().out + caplog.text).encode()
    assert b"<secret>" in output
    assert len(seen) == 2  # alice's send and bob's receive derivation
    for key in seen:
        spellings = canary.forms(key.reveal())
        assert [form for form, spelled in spellings.items() if spelled in output] == []
