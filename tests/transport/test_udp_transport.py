"""The real-socket backend: loopback pairs, loss, timeouts, shutdown.

Everything runs on 127.0.0.1 with ephemeral ports inside one event loop
per test (``asyncio.run`` from sync test functions -- the repo carries
no pytest-asyncio dependency).  Timeouts are kept tiny: a lossless
loopback exchange completes in well under a millisecond.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.site import build_site
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


def _turn_flag():
    """A list that gains an entry the next time the running loop turns."""
    turned = []
    asyncio.get_running_loop().call_soon(turned.append, "the loop turned")
    return turned


class TestReceivePath:
    """Harvest -> pop -> only then wait, checked by counts, not clocks."""

    def test_a_pending_datagram_costs_no_loop_turn(self):
        async def scenario():
            client, server = await _pair()
            turned = _turn_flag()
            await client.send(b"already in the kernel")
            got = await server.recv_from(1.0)
            seen = list(turned)
            await client.close()
            await server.close()
            return got[0], seen

        assert asyncio.run(scenario()) == (b"already in the kernel", [])

    def test_gateway_serves_pending_datagrams_without_a_loop_turn(self):
        async def scenario():
            site = await build_site("udp", 2)
            turned = _turn_flag()
            await site.transports[0].send(site.protect(0, b"one"))
            once = await site.gateway.serve_once(1.0)
            for i in range(8):
                await site.transports[i % 2].send(site.protect(i % 2, b"%d" % i))
            ready = await site.gateway.serve_ready(8)
            seen = list(turned)
            await site.close()
            return once, ready, seen

        once, ready, seen = asyncio.run(scenario())
        assert (once, ready) == ("enqueued", ["enqueued"] * 8)
        assert seen == []

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(st.sampled_from(("send", "turn", "recv")), max_size=40))
    def test_fifo_across_the_loop_reader_and_the_harvest(self, ops):
        # A loop turn lets asyncio's reader queue a datagram; a receive
        # harvests the rest.  Whoever took them, they leave in send order.
        async def scenario():
            client, server = await _pair()
            sent, got = 0, []
            for op in ops:
                if op == "send":
                    await client.send(b"%d" % sent)
                    sent += 1
                elif op == "turn":
                    await asyncio.sleep(0)
                else:
                    got.append(await server.recv(timeout=0))
            got.extend(server.drain())
            await client.close()
            await server.close()
            return sent, [int(payload) for payload in got if payload is not None]

        sent, got = asyncio.run(scenario())
        assert got == list(range(sent))

    @pytest.mark.parametrize("reader", ["loop", "harvest", "both"])
    def test_bounded_queue_counts_the_same_whoever_reads(self, reader):
        async def scenario():
            client, server = await _pair(UdpTransportConfig(recv_queue=4))
            for i in range(10):
                await client.send(b"%d" % i)
            if reader == "loop":
                await asyncio.sleep(0.05)
            elif reader == "both":
                for _ in range(2):
                    await asyncio.sleep(0)
            got = [await server.recv(timeout=0) for _ in range(5)]
            await client.close()
            await server.close()
            return got, server.stats

        got, stats = asyncio.run(scenario())
        assert got == [b"0", b"1", b"2", b"3", None]
        assert (stats.datagrams_received, stats.queue_drops) == (4, 6)

    def test_parked_receiver_is_woken_by_an_arrival(self):
        async def scenario():
            client, server = await _pair()
            receive = asyncio.ensure_future(server.recv(timeout=5.0))
            await asyncio.sleep(0.01)
            assert not receive.done()
            await client.send(b"wake up")
            got = await asyncio.wait_for(receive, 1.0)
            await client.close()
            await server.close()
            return got

        assert asyncio.run(scenario()) == b"wake up"

    def test_parked_receiver_times_out_on_time(self):
        async def scenario():
            server = await UdpTransport.create()
            start = time.monotonic()
            got = await server.recv(timeout=0.05)
            waited = time.monotonic() - start
            await server.close()
            return got, waited

        got, waited = asyncio.run(scenario())
        assert got is None
        assert 0.03 <= waited <= 0.07

    def test_cancelled_receive_leaves_nothing_behind(self):
        async def scenario():
            client, server = await _pair()
            loop = asyncio.get_running_loop()
            receive = asyncio.ensure_future(server.recv(timeout=5.0))
            await asyncio.sleep(0.01)
            receive.cancel()
            with pytest.raises(asyncio.CancelledError):
                await receive
            assert server._waiter is None
            assert [h for h in loop._scheduled if not h.cancelled()] == []
            await client.send(b"still works")
            got = await server.recv(timeout=1.0)
            await client.close()
            await server.close()
            return got

        assert asyncio.run(scenario()) == b"still works"

    def test_second_receiver_is_refused_while_one_waits(self):
        async def scenario():
            client, server = await _pair()
            first = asyncio.ensure_future(server.recv(timeout=5.0))
            await asyncio.sleep(0.01)
            with pytest.raises(TransportError, match="already has a receiver"):
                await server.recv(timeout=0)
            await client.send(b"for the first")
            got = await asyncio.wait_for(first, 1.0)
            await client.close()
            await server.close()
            return got

        assert asyncio.run(scenario()) == b"for the first"

    def test_busy_socket_does_not_starve_the_loop(self):
        # A server that always finds a datagram never parks; without the
        # yield after _YIELD_AFTER receives the backlog below is ~120 ms
        # during which no timer fires and no other task runs.
        async def scenario():
            client, server = await _pair()
            for burst in range(1, 5):  # the loop's reader queues each burst
                for _ in range(150):
                    await client.send(b"backlog")
                while server.stats.datagrams_received < 150 * burst:
                    await asyncio.sleep(0.001)
            running = True

            async def serve():
                while running:
                    await server.recv(timeout=1.0)
                    busy_until = time.perf_counter() + 200e-6
                    while time.perf_counter() < busy_until:
                        pass

            async def top_up():
                while running:
                    for _ in range(32):
                        await client.send(b"more")
                    await asyncio.sleep(0)

            tasks = [asyncio.ensure_future(serve()), asyncio.ensure_future(top_up())]
            start = time.monotonic()
            await asyncio.sleep(0.01)
            waited = time.monotonic() - start
            running = False
            await asyncio.gather(*tasks)
            await client.close()
            await server.close()
            return waited

        assert asyncio.run(scenario()) < 0.05


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

    def test_close_keeps_what_the_socket_already_holds(self):
        # Delivered to the socket before the close, not yet read by
        # anyone: readable afterwards, and counted.
        async def scenario():
            client, server = await _pair()
            await client.send(b"unread at close")
            await server.close()
            got = await server.recv(timeout=0.05)
            await client.close()
            return got, server.drain(), server.stats

        got, rest, stats = asyncio.run(scenario())
        assert (got, rest) == (b"unread at close", [])
        assert (stats.datagrams_received, stats.queue_drops) == (1, 0)

    def test_close_counts_what_the_full_queue_could_not_take(self):
        async def scenario():
            client, server = await _pair(UdpTransportConfig(recv_queue=1))
            for payload in (b"fits", b"does not"):
                await client.send(payload)
            await server.close()
            await client.close()
            return server.drain(), server.stats

        kept, stats = asyncio.run(scenario())
        assert kept == [b"fits"]
        assert (stats.datagrams_received, stats.queue_drops) == (1, 1)

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
