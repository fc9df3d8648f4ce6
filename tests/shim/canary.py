"""Key canaries: every key the running code makes, then a search for it.

The paper's security argument (Sections 5.2 and 6.1) needs ``K_{S,D}``
and ``K_f`` to stay secret.  The clock-offset shim
(``sitecustomize.py``) calls :func:`install` in every process on the
shim side of ``tests/test_report_determinism.py``, child processes
included.  From then on

* every :class:`~repro.crypto.secret.Secret` constructed -- each key
  producer returns one, the baselines' included, so a new producer
  cannot be left off a list -- is written once to file descriptor 2 as
  a :data:`RECORD` line naming the function that made it;
* the root logger renders every record at DEBUG and up on stderr, so a
  ``log.debug`` leak shows;
* each :class:`~repro.core.errors.FBSError` logs its type and text when
  it is made, so a key in an exception message shows even if the error
  is caught.

:func:`leaks` then searches a run's outputs for every recorded key in
each of :func:`forms`.
"""

import base64
import importlib
import logging
import os
import re
import sys

__all__ = ["RECORD", "forms", "install", "leaks"]

#: One recorded key: ``fbs-canary <maker> <hex>``.
RECORD = re.compile(rb"^fbs-canary (\S+) ([0-9a-f]+)\n", re.MULTILINE)


def install():
    """Record every key from now on, and render logs and FBSError texts."""
    secret = importlib.import_module("repro.crypto.secret").Secret
    made_secret = secret.__init__
    seen = set()

    def recorded(self, key):
        made_secret(self, key)
        if key not in seen:
            seen.add(key)
            maker = sys._getframe(1).f_code.co_name
            # One short write: lines from several processes sharing fd 2
            # (a producer's child processes) do not interleave.
            os.write(2, b"fbs-canary %s %s\n" % (maker.encode(), key.hex().encode()))

    secret.__init__ = recorded

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
