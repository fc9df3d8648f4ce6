"""SecureChannel: protection, ledgers, and first-contact retry.

The retry tests exercise the zero-message-keying hazard the channel
exists to absorb: a lost opening datagram produces nothing but silence,
so the sender re-protects and resends under jittered backoff.  Loss is
injected two ways -- a deterministic send-dropping wrapper over real
UDP, and seeded probabilistic loss on a simulated segment (where the
whole retry dance runs in virtual time).
"""

import asyncio
import random

import pytest

from repro.core.config import FBSConfig
from repro.crypto import vector
from repro.netsim.link import LinkConditions
from repro.transport import UdpTransport, channel_pair
from repro.transport import channel
from repro.transport.channel import SecureChannel, backoff
from repro.transport.runner import build_udp_channels

from tests.transport.helpers import DropSends, two_host_pair


def schedule(monkeypatch, initial, cap, jitter, attempts):
    """Patch the one backoff schedule for a test."""
    monkeypatch.setattr(channel, "BACKOFF_INITIAL", initial)
    monkeypatch.setattr(channel, "BACKOFF_CAP", cap)
    monkeypatch.setattr(channel, "BACKOFF_JITTER", jitter)
    monkeypatch.setattr(channel, "ATTEMPTS", attempts)


@pytest.fixture
def fast_retry(monkeypatch):
    """Fast real-time backoff so the UDP retry tests stay sub-second."""
    schedule(monkeypatch, initial=0.01, cap=0.02, jitter=0.0, attempts=5)


async def _echo_forever(server, timeout=0.05):
    """Server loop for the UDP tests: unprotect, re-protect, echo."""
    while True:
        body = await server.recv(timeout)
        if body is not None:
            await server.send(body)


class TestLedger:
    def test_lossless_exchange_counts(self):
        net, t_a, t_b = two_host_pair()
        ch_a, ch_b = channel_pair(t_a, t_b, seed=5)

        async def scenario():
            await ch_a.send(b"first")
            got = await ch_b.recv(timeout=2.0)
            await ch_b.send(b"reply")
            reply = await ch_a.recv(timeout=2.0)
            return got, reply

        got, reply = asyncio.run(scenario())
        assert (got, reply) == (b"first", b"reply")
        ledger_a, ledger_b = ch_a.ledger_dict(), ch_b.ledger_dict()
        assert ledger_a["sent"] == 1 and ledger_a["accepted"] == 1
        assert ledger_b["sent"] == 1 and ledger_b["accepted"] == 1
        assert all(v == 0 for v in ledger_a["rejected"].values())

    def test_tampered_datagram_rejected_as_mac(self):
        net, t_a, t_b = two_host_pair()
        ch_a, ch_b = channel_pair(t_a, t_b, seed=5)

        async def scenario():
            wire = ch_a.endpoint.protect(b"genuine", ch_a.peer)
            await t_a.send(wire[:-1] + bytes([wire[-1] ^ 1]))
            return await ch_b.recv(timeout=2.0)

        assert asyncio.run(scenario()) is None
        assert ch_b.ledger_dict()["rejected"]["mac"] == 1
        assert ch_b.ledger_dict()["accepted"] == 0

    def test_garbage_rejected_as_header(self):
        net, t_a, t_b = two_host_pair()
        ch_a, ch_b = channel_pair(t_a, t_b, seed=5)

        async def scenario():
            await t_a.send(b"\x00\x01not an fbs datagram")
            return await ch_b.recv(timeout=2.0)

        assert asyncio.run(scenario()) is None
        assert ch_b.ledger_dict()["rejected"]["header"] == 1

    def test_ledger_dict_carries_transport_stats(self):
        net, t_a, t_b = two_host_pair()
        ch_a, ch_b = channel_pair(t_a, t_b, seed=5)
        snapshot = ch_a.ledger_dict()
        assert snapshot["transport"]["datagrams_sent"] == 0
        assert set(snapshot) == {"sent", "accepted", "rejected", "transport"}


class TestBackoff:
    def test_backoff_doubles_to_the_cap(self, monkeypatch):
        schedule(monkeypatch, initial=0.1, cap=0.5, jitter=0.0, attempts=8)
        rng = random.Random(0)
        waits = [backoff(i, rng) for i in range(5)]
        assert waits == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_bounds(self):
        rng = random.Random(1)
        for attempt in range(6):
            base = min(0.05 * 2 ** attempt, 1.0)
            wait = backoff(attempt, rng)
            # Jitter widens the wait both ways, but the cap stays a hard
            # ceiling on any single backoff.
            assert base * 0.5 <= wait <= min(base * 1.5, channel.BACKOFF_CAP)

    def test_cap_is_a_ceiling_even_with_jitter(self):
        # Regression: the jitter multiplier used to be applied *after*
        # the cap, so a capped attempt could wait up to cap * (1 +
        # jitter) -- violating the documented "ceiling on any single
        # backoff".  An rng pinned to the top of the jitter range makes
        # the old behaviour deterministic: it returned cap * 1.5.
        class TopOfRange:
            @staticmethod
            def uniform(lo, hi):
                return hi

        assert backoff(10, TopOfRange()) == pytest.approx(1.0)
        # Below the cap the jitter still widens upward as documented.
        assert backoff(0, TopOfRange()) == pytest.approx(0.075)
        # And across many real draws nothing ever exceeds the cap.
        rng = random.Random(2026)
        assert all(
            backoff(attempt, rng) <= channel.BACKOFF_CAP
            for attempt in range(8)
            for _ in range(50)
        )

    def test_jitter_is_seed_deterministic(self):
        a = [backoff(i, random.Random(9)) for i in range(4)]
        b = [backoff(i, random.Random(9)) for i in range(4)]
        assert a == b


class TestRequestDrainsTheWindow:
    def test_duplicate_straggler_does_not_burn_the_attempt(self):
        # Regression: request() used to treat any None from recv() as
        # silence, so a rejected arrival early in the window (here: a
        # duplicate straggler refused by the replay guard) ended the
        # attempt immediately and triggered a resend -- even though the
        # genuine reply was still in flight.  The fix drains the
        # *remaining* timeout window within the attempt.
        config = FBSConfig(replay_guard_size=64)
        net, t_a, t_b = two_host_pair(seed=21)
        ch_a, ch_b = channel_pair(t_a, t_b, seed=21, config=config)

        async def scenario():
            # Arm the replay guard: deliver one reply and accept it.
            first = ch_b.endpoint.protect(b"first reply", ch_b.peer)
            await t_b.send(first)
            got = await ch_a.recv(timeout=1.0)
            # Script the peer in virtual time: the straggler twin of
            # the accepted datagram arrives early in the request
            # window, the genuine reply later but still inside it.
            late = ch_b.endpoint.protect(b"late reply", ch_b.peer)
            sim = net.sim
            sim.schedule_at(sim.now + 0.05, lambda: t_b.send_sync(first))
            sim.schedule_at(sim.now + 0.15, lambda: t_b.send_sync(late))
            reply = await ch_a.request(b"ping", timeout=0.5)
            return got, reply

        got, reply = asyncio.run(scenario())
        assert got == b"first reply"
        assert reply == b"late reply"
        # The duplicate was rejected, but the attempt kept listening:
        # exactly one send, no retransmission.
        assert ch_a.ledger_dict()["sent"] == 1
        assert ch_a.ledger_dict()["rejected"]["duplicate"] == 1


class TestFirstContactRetryOverUdp:
    def test_request_survives_dropped_first_contact(self, fast_retry):
        async def scenario():
            client, server = await build_udp_channels(seed=3)
            lossy = DropSends(client.transport, drop_first=2)
            lossy_client = SecureChannel(client.endpoint, lossy, peer=client.peer, seed=3)
            echo = asyncio.ensure_future(_echo_forever(server))
            try:
                reply = await lossy_client.request(b"open sesame", timeout=0.1)
            finally:
                echo.cancel()
            await lossy_client.close()
            await server.close()
            return reply, lossy_client.ledger_dict()["sent"], lossy.dropped

        reply, sent, dropped = asyncio.run(scenario())
        assert reply == b"open sesame"
        assert sent == 3  # two vanished, the third connected
        assert len(dropped) == 2

    def test_request_returns_none_when_budget_spent(self, fast_retry):
        async def scenario():
            client, server = await build_udp_channels(seed=4)
            black_hole = DropSends(client.transport, drop_first=10 ** 6)
            doomed = SecureChannel(client.endpoint, black_hole, peer=client.peer, seed=4)
            reply = await doomed.request(b"anyone?", timeout=0.02)
            await doomed.close()
            await server.close()
            return reply, doomed.ledger_dict()["sent"]

        reply, sent = asyncio.run(scenario())
        assert reply is None
        assert sent == channel.ATTEMPTS == 5

    def test_every_retry_reprotects_with_fresh_timestamp(self, fast_retry):
        # Each attempt runs the full protect path: the endpoint's sent
        # counter, which the ledger reads, advances per retransmission, so
        # a late duplicate can never be double-delivered (replay guard).
        async def scenario():
            client, server = await build_udp_channels(seed=6)
            lossy = DropSends(client.transport, drop_first=1)
            ch = SecureChannel(client.endpoint, lossy, peer=client.peer, seed=6)
            echo = asyncio.ensure_future(_echo_forever(server))
            try:
                await ch.request(b"fresh", timeout=0.1)
            finally:
                echo.cancel()
            protect_count = ch.ledger_dict()["sent"]
            await ch.close()
            await server.close()
            return protect_count

        assert asyncio.run(scenario()) == 2


class TestSecretEchoOverUdp:
    def test_request_against_a_parked_echo_server(self):
        # The server task sits in ``recv`` (a parked receiver) while the
        # client's ``request`` sends and waits: both ends of the UDP
        # wait path.  Bodies are long enough for unprotect() to hand
        # them to the lane kernel.
        body = bytes(range(256)) * 2
        assert len(body) >= 8 * vector.SINGLE_LANE_MIN_BLOCKS

        async def scenario():
            server_transport = await UdpTransport.create()
            client_transport = await UdpTransport.create(
                remote=server_transport.local_address
            )
            client, server = channel_pair(client_transport, server_transport, seed=7)
            client.secret = server.secret = True
            echo = asyncio.ensure_future(_echo_forever(server, timeout=0.1))
            try:
                replies = [await client.request(body, timeout=0.5) for _ in range(8)]
            finally:
                echo.cancel()
            ledgers = [channel.ledger_dict() for channel in (client, server)]
            await client.close()
            await server.close()
            return replies, ledgers

        replies, ledgers = asyncio.run(scenario())
        assert replies == [body] * 8
        for ledger in ledgers:
            assert ledger["accepted"] == 8, ledger
            assert sum(ledger["rejected"].values()) == 0, ledger


class TestFirstContactRetryOverNetsim:
    def test_retry_in_pure_virtual_time(self, monkeypatch):
        # Seeded probabilistic loss on the simulated segment; the whole
        # backoff dance runs on the virtual clock, so this test is
        # deterministic AND instant.
        conditions = LinkConditions(loss_probability=0.4)
        net, t_a, t_b = two_host_pair(seed=11, conditions=conditions)
        schedule(monkeypatch, initial=0.5, cap=4.0, jitter=0.5, attempts=10)
        ch_a, ch_b = channel_pair(t_a, t_b, seed=11)

        async def scenario():
            delivered = 0
            for i in range(5):
                payload = b"msg %d" % i
                for attempt in range(channel.ATTEMPTS):
                    if attempt:
                        await t_a.sleep(backoff(attempt - 1, ch_a._rng))
                    await ch_a.send(payload)
                    got = await ch_b.recv(timeout=2.0)
                    if got is not None:
                        await ch_b.send(got)
                    reply = await ch_a.recv(timeout=2.0)
                    if reply == payload:
                        delivered += 1
                        break
            return delivered

        delivered = asyncio.run(scenario())
        assert delivered == 5  # retries absorbed 40% loss
        assert ch_a.ledger_dict()["sent"] > 5  # some exchanges needed resends
        assert net.sim.now > 0.5  # backoff genuinely elapsed (virtually)
