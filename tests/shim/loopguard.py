"""A blocking call made while the event loop runs fails.

One ``sys.addaudithook`` hook: the check on the running code that
replaced fbslint's FBS010.  ``tests/conftest.py`` installs it for the
whole suite, and the clock-offset shim (``tests/shim/sitecustomize.py``)
installs it in every report producer ``tests/test_report_determinism.py``
runs on its shim side.

An audit event in :data:`BLOCKING` fails, by raising
:class:`LoopBlocked`, when it fires while this thread's event loop is
running -- a task, or a callback such as a protocol's
``datagram_received`` -- unless

* its innermost frame is in ``asyncio`` (the loop's own non-blocking
  socket work: ``sock_connect`` fires ``socket.connect``) or in
  ``importlib`` (an import inside a coroutine opens the module file);
* the innermost frame outside the interpreter's library is a test
  module (``test_*.py``, ``conftest.py``), as FBS010 exempted tests.

``socket.__new__`` is not in the set: making a socket does not block
(``create_datagram_endpoint`` and ``UdpTransport.create``'s ``dup()``
both make one inside a task).  ``time.sleep`` raises no audit event
before CPython 3.13, so :func:`install` wraps it there to raise one;
install before ``repro`` is imported, so ``from time import sleep``
binds the wrapper.
"""

import os
import sys
import time

__all__ = ["BLOCKING", "LoopBlocked", "install"]

BLOCKING = frozenset({
    "time.sleep", "open", "subprocess.Popen", "os.system", "socket.connect",
    "socket.getaddrinfo", "socket.gethostbyname", "builtins.input",
})

_LIBRARY = os.path.dirname(os.__file__)
#: Where an event's innermost frame makes it the interpreter's own work.
_OWN_WORK = (
    os.path.join(_LIBRARY, "asyncio", ""),
    os.path.join(_LIBRARY, "importlib", ""),
    "<frozen importlib",
)


class LoopBlocked(SystemExit):
    """A blocking call on the event loop.  A ``SystemExit``, so neither an
    ``except Exception`` around the call nor the loop's handler around a
    callback (it re-raises only ``SystemExit`` and ``KeyboardInterrupt``)
    can swallow it; a process it reaches exits 1 with the message."""


def _hook(event, args):
    if event not in BLOCKING:
        return
    # Absent or half-imported asyncio: no loop can be running.
    asyncio = sys.modules.get("asyncio")
    running_loop = getattr(asyncio, "_get_running_loop", None)
    if running_loop is None or running_loop() is None:
        return
    frame = sys._getframe(1)
    if frame.f_code is _audited_sleep.__code__:
        frame = frame.f_back
    if frame.f_code.co_filename.startswith(_OWN_WORK):
        return
    while frame is not None and frame.f_code.co_filename.startswith((_LIBRARY, "<frozen")):
        frame = frame.f_back
    if frame is None or os.path.basename(frame.f_code.co_filename).startswith(
        ("test_", "conftest")
    ):
        return
    task = asyncio.current_task()
    raise LoopBlocked(
        f"{event}{args!r} at {frame.f_code.co_filename}:{frame.f_lineno} "
        f"while the event loop runs "
        + (f"task {task.get_name()!r}" if task else "a callback")
    )


def _audited_sleep(secs, _sleep=time.sleep):
    sys.audit("time.sleep", secs)
    _sleep(secs)


def install():
    """Add the hook for the rest of the process (audit hooks cannot be
    removed)."""
    sys.addaudithook(_hook)
    if sys.version_info < (3, 13):
        time.sleep = _audited_sleep
