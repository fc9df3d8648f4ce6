"""Planted loop-discipline cases, as code that runs.

The cases fbslint's FBS010 fixtures held (``fbs010_bad.py``,
``fbs010_gateway_bad.py``, ``fbs010_transport_bad.py`` and their
``_ok`` twins), rewritten so ``tests/test_loop_discipline.py`` can run
each coroutine in an event loop under the audit hook
(``tests/shim/loopguard.py``); one case for each audit event the hook
watches that those fixtures did not make; and a protocol that blocks in
``datagram_received``, a loop callback FBS010 never looked at.  This is
not a test module on purpose: the hook exempts those, as FBS010 did.
"""

import asyncio
import importlib
import io
import os
import pathlib
import socket
import subprocess
import sys
import time
from time import sleep


class IdleTransport:
    """A receive surface that yields to the loop and delivers nothing."""

    async def recv_from(self, timeout):
        await asyncio.sleep(0)
        return None


# -- blocking: each fails under the hook --------------------------------------


def _drain_sync():
    time.sleep(0)


async def pump():
    time.sleep(0)
    await asyncio.sleep(0)


async def pump_through_helper():  # the sleep one call away
    _drain_sync()


async def snapshot():
    with open(__file__) as fh:
        return fh.read()


def _throttle(interval):
    time.sleep(interval)


async def serve_once(transport=IdleTransport()):  # the sleep one call away
    _throttle(0)
    return await transport.recv_from(0)


async def serve(rounds=2, transport=IdleTransport()):
    for _ in range(rounds):
        time.sleep(0)
        await transport.recv_from(0)


async def snapshot_through_helper():  # the library's helper opens the file
    return pathlib.Path(__file__).read_text()


async def snapshot_report():
    with open(os.devnull, "w") as fh:
        fh.write("{}")


def _poll_blocking(sock):
    time.sleep(0)
    return sock


async def recv():  # the sleep one call away
    return _poll_blocking(None)


async def retry(backoff=0):
    time.sleep(backoff)
    await asyncio.sleep(0)


async def connect():  # a connect on the socket itself, not through the loop
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.connect(("127.0.0.1", 9))


class _BlockingReceiver(asyncio.DatagramProtocol):
    def __init__(self):
        self.received = asyncio.get_running_loop().create_future()

    def datagram_received(self, data, addr):
        time.sleep(0)
        self.received.set_result(data)


async def deliver():  # the sleep in a loop callback, not in a task
    transport, receiver = await asyncio.get_running_loop().create_datagram_endpoint(
        _BlockingReceiver, local_addr=("127.0.0.1", 0)
    )
    try:
        transport.sendto(b"datagram", transport.get_extra_info("sockname"))
        return await asyncio.wait_for(receiver.received, 5)
    finally:
        transport.close()


# Each event the hook watches, made by the call that raises it; the hook
# fails each before the call does its work.


async def doze():  # bound by ``from time import sleep`` after install
    sleep(0)


async def guarded():  # an ``except Exception`` cannot swallow the failure
    try:
        time.sleep(0)
    except Exception as error:
        return error


async def spawn():
    subprocess.run([sys.executable, "-c", "pass"], check=True)


async def shell():
    os.system("exit 0")


async def resolve():
    socket.getaddrinfo("localhost", 9)


async def lookup():
    socket.gethostbyname("localhost")


async def prompt():
    saved, sys.stdin = sys.stdin, io.StringIO("y\n")
    try:
        return input()
    finally:
        sys.stdin = saved


BLOCKING = (
    pump, pump_through_helper, snapshot, snapshot_through_helper, serve_once, serve,
    snapshot_report,
    recv, retry, connect, deliver, doze, guarded, spawn, shell, resolve, lookup,
    prompt,
)


# -- yielding: each passes ---------------------------------------------------


def load_config():  # blocking, but no coroutine reaches it
    time.sleep(0)
    with open(__file__) as fh:
        return fh.read()


async def pump_awaiting():
    await asyncio.sleep(0)


async def serve_awaiting(rounds=2, transport=IdleTransport()):
    handled = 0
    for _ in range(rounds):
        if await transport.recv_from(0) is not None:
            handled += 1
    return handled


async def recv_queue(timeout=1.0):
    queue = asyncio.Queue()
    queue.put_nowait(b"datagram")
    return await asyncio.wait_for(queue.get(), timeout)


async def close(timeout=1.0):
    closed = asyncio.Event()
    asyncio.get_running_loop().call_soon(closed.set)
    await asyncio.wait_for(closed.wait(), timeout)


async def open_socket():  # making a socket does not block
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        return sock.family


async def connect_through_the_loop():  # asyncio's own sock_connect
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", 9))


async def import_afresh():  # the import opens the module's file
    sys.modules.pop("colorsys", None)
    return importlib.import_module("colorsys").__name__


YIELDING = (
    pump_awaiting, serve_awaiting, recv_queue, close, open_socket,
    connect_through_the_loop, import_afresh,
)
