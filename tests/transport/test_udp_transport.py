"""The real-socket backend: loopback pairs, loss, timeouts, shutdown.

Everything runs on 127.0.0.1 with ephemeral ports inside one event loop
per test (``asyncio.run`` from sync test functions -- the repo carries
no pytest-asyncio dependency).  Timeouts are kept tiny: a lossless
loopback exchange completes in well under a millisecond.
"""

import asyncio

import pytest

from repro.transport import (
    TransportClosedError,
    TransportError,
    UdpTransport,
    UdpTransportConfig,
)

from tests.transport.helpers import DropSends


async def _pair(config=None):
    """A connected loopback pair; only the client knows its peer."""
    server = await UdpTransport.create(config=config)
    client = await UdpTransport.create(
        remote=server.local_address, config=config
    )
    return client, server


class TestDatagramPath:
    def test_send_recv_roundtrip(self):
        async def scenario():
            client, server = await _pair()
            await client.send(b"over the kernel")
            got = await server.recv(timeout=2.0)
            await client.close()
            await server.close()
            return got, client.stats.datagrams_sent, server.stats.datagrams_received

        got, sent, received = asyncio.run(scenario())
        assert got == b"over the kernel"
        assert (sent, received) == (1, 1)

    def test_recv_timeout_returns_none(self):
        async def scenario():
            client, server = await _pair()
            got = await server.recv(timeout=0.05)
            await client.close()
            await server.close()
            return got

        assert asyncio.run(scenario()) is None

    def test_zero_timeout_polls_what_has_arrived(self):
        # A poll must hand over a queued datagram: asyncio.wait_for(..., 0)
        # cancels the read first on interpreters before 3.12.
        async def scenario():
            client, server = await _pair()
            for payload in (b"one", b"two"):
                await client.send(payload)
            while server.stats.datagrams_received < 2:
                await asyncio.sleep(0.001)
            got = [await server.recv(timeout=0) for _ in range(3)]
            await client.close()
            await server.close()
            return got

        assert asyncio.run(scenario()) == [b"one", b"two", None]

    def test_server_adopts_first_peer(self):
        # First contact needs no out-of-band address exchange: the
        # server learns where to reply from the first datagram.
        async def scenario():
            client, server = await _pair()
            assert server.remote is None
            await client.send(b"ping")
            await server.recv(timeout=2.0)
            await server.send(b"pong")
            got = await client.recv(timeout=2.0)
            await client.close()
            await server.close()
            return got

        assert asyncio.run(scenario()) == b"pong"

    def test_send_without_peer_raises(self):
        async def scenario():
            lonely = await UdpTransport.create()
            try:
                with pytest.raises(TransportError):
                    await lonely.send(b"to nowhere")
            finally:
                await lonely.close()

        asyncio.run(scenario())

    def test_bounded_queue_drops_and_counts(self):
        async def scenario():
            config = UdpTransportConfig(recv_queue=2)
            client, server = await _pair(config=config)
            for i in range(6):
                await client.send(b"%d" % i)
            # Let the loop deliver everything before reading.
            await asyncio.sleep(0.1)
            kept = server.drain()
            stats = server.stats
            await client.close()
            await server.close()
            return kept, stats

        kept, stats = asyncio.run(scenario())
        assert len(kept) == 2
        assert stats.datagrams_received == 2
        assert stats.queue_drops == 4

    def test_now_is_monotonic(self):
        async def scenario():
            t = await UdpTransport.create()
            t0 = t.now()
            await t.sleep(0.01)
            t1 = t.now()
            await t.close()
            return t0, t1

        t0, t1 = asyncio.run(scenario())
        assert t1 >= t0 + 0.005


class TestShutdown:
    def test_send_after_close_raises(self):
        async def scenario():
            client, server = await _pair()
            await client.close()
            with pytest.raises(TransportClosedError):
                await client.send(b"nope")
            await server.close()

        asyncio.run(scenario())

    def test_close_preserves_queued_datagrams(self):
        # Graceful shutdown: what already arrived stays readable.
        async def scenario():
            client, server = await _pair()
            await client.send(b"in flight")
            await asyncio.sleep(0.05)
            await server.close()
            kept = server.drain()
            await client.close()
            return kept

        assert asyncio.run(scenario()) == [b"in flight"]

    def test_close_is_idempotent(self):
        async def scenario():
            t = await UdpTransport.create()
            await t.close()
            await t.close()
            return t.closed

        assert asyncio.run(scenario()) is True

    def test_local_address_before_create_raises(self):
        t = UdpTransport()
        with pytest.raises(TransportError):
            t.local_address

    def test_sync_surface_refuses(self):
        # The UDP backend is event-loop only; the sync escapes exist for
        # substrates whose "event loop" is the simulator.
        t = UdpTransport()
        with pytest.raises(TransportError):
            t.send_sync(b"x")
        with pytest.raises(TransportError):
            t.recv_sync()


class TestInjectedLoss:
    def test_dropped_sends_time_out(self):
        async def scenario():
            client, server = await _pair()
            lossy = DropSends(client, drop_first=1)
            await lossy.send(b"vanishes")
            got = await server.recv(timeout=0.05)
            await lossy.close()
            await server.close()
            return got, lossy.dropped

        got, dropped = asyncio.run(scenario())
        assert got is None
        assert dropped == [b"vanishes"]

    def test_resend_after_drop_gets_through(self):
        async def scenario():
            client, server = await _pair()
            lossy = DropSends(client, drop_first=2)
            for _ in range(3):
                await lossy.send(b"try")
                got = await server.recv(timeout=0.05)
                if got is not None:
                    break
            await lossy.close()
            await server.close()
            return got, lossy.remaining

        got, remaining = asyncio.run(scenario())
        assert got == b"try"
        assert remaining == 0
