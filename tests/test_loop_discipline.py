"""The blocking-call audit hook bites, and only where it should.

Every test runs under ``tests/shim/loopguard.py`` (``tests/conftest.py``
installs it), so ``tests/transport``, ``tests/gateway`` and the UDP echo
example already show the real tree keeps the loop free.  Here the
planted cases of ``tests/planted_blocking.py`` show the hook fails a
blocking call made while the loop runs a task or a callback, and passes
everything that awaits, or blocks off the loop.
"""

import asyncio
import linecache
import threading
import time

import pytest

from repro.transport.udp import UdpTransport
from tests import planted_blocking as planted
from tests.shim import loopguard


def _name(case):
    return case.__name__


@pytest.mark.parametrize("case", planted.BLOCKING, ids=_name)
def test_a_blocking_call_on_the_loop_fails(case):
    with pytest.raises(loopguard.LoopBlocked, match="while the event loop runs"):
        asyncio.run(case())


@pytest.mark.parametrize("case", planted.BLOCKING, ids=_name)
def test_a_blocking_call_on_a_debug_mode_loop_still_fails(case):
    with pytest.raises(loopguard.LoopBlocked, match="while the event loop runs"):
        asyncio.run(case(), debug=True)


def test_a_debug_mode_loop_reading_its_own_sources_passes():
    # Debug mode (``python -X dev``) records where each future and timer
    # was made, and linecache opens the source of every frame recorded:
    # the loop's own work, though the call path that parks is in src/.
    linecache.clearcache()
    assert asyncio.run(UdpTransport().recv(timeout=0.001), debug=True) is None


def test_every_watched_event_has_a_planted_case():
    # A misspelt name in the set would watch nothing: each name must be
    # the event a real blocking call raises on this interpreter.
    fired = set()
    for case in planted.BLOCKING:
        with pytest.raises(loopguard.LoopBlocked) as blocked:
            asyncio.run(case())
        fired.add(str(blocked.value).split("(", 1)[0])
    assert fired == loopguard.BLOCKING


@pytest.mark.parametrize("case", planted.YIELDING, ids=_name)
def test_a_coroutine_that_yields_passes(case):
    asyncio.run(case())


def test_the_same_calls_off_the_loop_pass():
    planted.load_config()
    asyncio.run(planted.pump_awaiting())  # a loop that ran ...
    planted.load_config()  # ... and stopped


def test_a_loop_running_in_another_thread_does_not_hold_this_one():
    running, release = threading.Event(), threading.Event()

    async def wait_for_release():
        running.set()
        while not release.is_set():
            await asyncio.sleep(0.001)

    thread = threading.Thread(target=asyncio.run, args=(wait_for_release(),))
    thread.start()
    try:
        assert running.wait(5)
        planted.load_config()
    finally:
        release.set()
        thread.join(5)
    assert not thread.is_alive()


def test_test_modules_are_exempt():
    async def sleeps_in_a_test():
        time.sleep(0)

    asyncio.run(sleeps_in_a_test())
