"""Key canaries: every key the running code derives, then a search for it.

The paper's security argument (Sections 5.2 and 6.1) needs ``K_{S,D}``
and ``K_f`` to stay secret.  The clock-offset shim
(``sitecustomize.py``) calls :func:`install` in every process on the
shim side of ``tests/test_report_determinism.py``, child processes
included.  From then on

* each value FBS001's source calls return -- ``flow_key``,
  ``master_key``, ``encryption_key``, ``mac_key`` and ``agree`` -- is
  written once to file descriptor 2 as a :data:`RECORD` line;
* the root logger renders every record at DEBUG and up on stderr, so a
  ``log.debug`` leak shows;
* each :class:`~repro.core.errors.FBSError` logs its type and text when
  it is made, so a key in an exception message shows even if the error
  is caught.

:func:`leaks` then searches a run's outputs for every recorded key in
each of :func:`forms`.
"""

import base64
import functools
import importlib
import logging
import os
import re

__all__ = ["RECORD", "SOURCES", "forms", "install", "leaks"]

#: FBS001's source calls: ``(module, class, method)``.
SOURCES = (
    ("repro.core.keying", "KeyDerivation", "flow_key"),
    ("repro.core.keying", "KeyDerivation", "encryption_key"),
    ("repro.core.keying", "KeyDerivation", "mac_key"),
    ("repro.core.mkd", "MasterKeyDaemon", "master_key"),
    ("repro.crypto.dh", "DHPrivateKey", "agree"),
)
#: One recorded key: ``fbs-canary <source> <hex>``.
RECORD = re.compile(rb"^fbs-canary (\w+) ([0-9a-f]+)\n", re.MULTILINE)


def _recording(function, name, seen):
    @functools.wraps(function)
    def recorded(*args, **kwargs):
        key = function(*args, **kwargs)
        if key not in seen:
            seen.add(key)
            # One short write: lines from several processes sharing fd 2
            # (a producer's child processes) do not interleave.
            os.write(2, b"fbs-canary %s %s\n" % (name.encode(), key.hex().encode()))
        return key

    return recorded


def install():
    """Record every key from now on, and render logs and FBSError texts."""
    seen = set()
    for module, owner, name in SOURCES:
        cls = getattr(importlib.import_module(module), owner)
        held = cls.__dict__[name]
        if isinstance(held, staticmethod):
            setattr(cls, name, staticmethod(_recording(held.__func__, name, seen)))
        else:
            setattr(cls, name, _recording(held, name, seen))

    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.DEBUG)

    errors = importlib.import_module("repro.core.errors")
    made = errors.FBSError.__init__
    log = logging.getLogger("canary.exceptions")

    def __init__(self, *args):
        made(self, *args)
        log.debug("%s: %s", type(self).__name__, self)

    errors.FBSError.__init__ = __init__


def forms(key):
    """The spellings of ``key`` that count as a leak."""
    return {
        "raw": key,
        "hex": key.hex().encode(),
        "big-endian int": str(int.from_bytes(key, "big")).encode(),
        "little-endian int": str(int.from_bytes(key, "little")).encode(),
        "base64": base64.b64encode(key),
        "repr": repr(key)[2:-1].encode(),
    }


def leaks(outputs):
    """``name -> bytes`` outputs of one run, its :data:`RECORD` lines
    among them: ``(keys recorded, one line per key found elsewhere)``."""
    keys = {}
    for data in outputs.values():
        for source, spelled in RECORD.findall(data):
            keys.setdefault(bytes.fromhex(spelled.decode()), source.decode())
    found = []
    for name, data in sorted(outputs.items()):
        data = RECORD.sub(b"", data)
        for key, source in sorted(keys.items()):
            for form, spelled in forms(key).items():
                if spelled in data:
                    found.append(f"{source} key {key.hex()[:8]}... as {form} in {name}")
    return len(keys), found
