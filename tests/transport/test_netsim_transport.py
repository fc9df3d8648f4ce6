"""The netsim adapter: virtual-time semantics and UdpSocket bit-identity."""

import asyncio

import pytest

from repro.netsim.network import Network
from repro.netsim.sockets import UdpSocket
from repro.transport import NetsimTransport, TransportClosedError
from repro.transport.netsim import netsim_transport_pair

from tests.transport.helpers import two_host_pair


class TestDatagramPath:
    def test_send_recv_roundtrip(self):
        net, t_a, t_b = two_host_pair()
        t_a.send_sync(b"hello")
        assert t_b.recv_sync(timeout=5.0) == b"hello"
        assert t_a.stats.datagrams_sent == 1
        assert t_b.stats.datagrams_received == 1

    def test_recv_advances_only_to_the_deadline(self):
        net, t_a, t_b = two_host_pair()
        assert t_b.recv_sync(timeout=3.0) is None
        assert net.sim.now == pytest.approx(3.0)

    def test_recv_stops_the_instant_a_datagram_lands(self):
        net, t_a, t_b = two_host_pair()
        net.sim.schedule_at(1.0, lambda: t_a.send_sync(b"later"))
        assert t_b.recv_sync(timeout=10.0) == b"later"
        # Virtual time stopped at delivery, not at the timeout.
        assert net.sim.now < 2.0

    def test_recv_zero_timeout_is_a_poll(self):
        net, t_a, t_b = two_host_pair()
        t_a.send_sync(b"queued")
        assert t_b.recv_sync(timeout=0) is None  # not yet delivered
        net.sim.run()
        assert t_b.recv_sync(timeout=0) == b"queued"
        assert net.sim.now == net.sim.now  # poll never advances time

    def test_recv_without_timeout_runs_to_quiescence(self):
        net, t_a, t_b = two_host_pair()
        assert t_b.recv_sync() is None  # event queue empties, no hang

    def test_bounded_queue_drops_and_counts(self):
        net, t_a, t_b = two_host_pair(recv_queue=2)
        for i in range(5):
            t_a.send_sync(b"%d" % i)
        net.sim.run()
        assert len(t_b.drain()) == 2
        assert t_b.stats.queue_drops == 3
        assert t_b.stats.datagrams_received == 2

    @pytest.mark.parametrize("recv_queue", [0, -1])
    def test_a_queue_that_holds_nothing_is_refused(self, recv_queue):
        with pytest.raises(ValueError, match="recv_queue must be at least 1"):
            two_host_pair(recv_queue=recv_queue)

    def test_send_after_close_raises(self):
        net, t_a, t_b = two_host_pair()
        t_a.close_sync()
        with pytest.raises(TransportClosedError):
            t_a.send_sync(b"nope")

    def test_close_twice_is_a_no_op(self):
        net, t_a, t_b = two_host_pair()
        t_a.close_sync()
        t_a.close_sync()
        assert t_a.closed

    def test_send_without_a_peer_raises(self):
        net = Network(seed=0)
        net.add_segment("lan", "10.50.0.0")
        t = NetsimTransport(net.add_host("a", segment="lan"))
        with pytest.raises(TransportClosedError, match="no peer"):
            t.send_sync(b"nowhere")
        assert t.stats.datagrams_sent == 0

    def test_recv_from_names_the_source(self):
        net, t_a, t_b = two_host_pair()
        t_a.send_sync(b"who")
        assert t_b.recv_from_sync(timeout=5.0) == (
            b"who", (str(net.hosts["a"].address), t_a.local_port)
        )

    def test_close_releases_the_port(self):
        net = Network(seed=0)
        net.add_segment("lan", "10.50.0.0")
        host = net.add_host("a", segment="lan")
        t = NetsimTransport(host, local_port=4321)
        t.close_sync()
        # Rebind guarded by the port-reuse countermeasure: advance past it.
        net.sim.run(until=net.sim.now + 600.0)
        t2 = NetsimTransport(host, local_port=4321)
        assert t2.local_port == 4321

    def test_sleep_advances_virtual_time(self):
        net, t_a, t_b = two_host_pair()
        t_a.sleep_sync(7.5)
        assert net.sim.now == pytest.approx(7.5)

    def test_now_is_the_host_clock(self):
        net, t_a, t_b = two_host_pair()
        t_a.sleep_sync(2.0)
        assert t_a.now() == pytest.approx(net.hosts["a"].clock.now())


class TestAsyncSurface:
    def test_async_wrappers_complete_inline(self):
        # The inherited async surface never awaits, so one asyncio.run
        # drives the simulator exactly like the sync calls do.
        async def scenario():
            net, t_a, t_b = two_host_pair()
            await t_a.send(b"ping")
            got = await t_b.recv(timeout=5.0)
            await t_a.sleep(1.0)
            await t_a.close()
            return got, net.sim.now

        got, now = asyncio.run(scenario())
        assert got == b"ping"
        assert now > 0.0

    def test_async_recv_from_is_the_sync_call(self):
        async def scenario():
            net, t_a, t_b = two_host_pair()
            await t_b.send(b"back")
            return await t_a.recv_from(timeout=5.0), t_b.local_port

        (payload, (_host, port)), sender_port = asyncio.run(scenario())
        assert (payload, port) == (b"back", sender_port)


class TestUdpSocketBitIdentity:
    """The adapter must be indistinguishable on the wire from the
    hand-wired UdpSocket it replaced (this is what let the resilience
    harness swap substrates without a single report byte changing)."""

    PAYLOADS = [b"alpha", b"bravo", b"charlie", b"x" * 900]

    def _run_sockets(self):
        net = Network(seed=42)
        net.add_segment("lan", "10.60.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        rx = UdpSocket(b, 4000)
        tx = UdpSocket(a)
        for i, p in enumerate(self.PAYLOADS):
            net.sim.schedule_at(i * 0.5, lambda p=p: tx.sendto(p, b.address, 4000))
        net.sim.run()
        return [payload for payload, _src, _port in rx.received], net.sim.now

    def _run_transports(self):
        net = Network(seed=42)
        net.add_segment("lan", "10.60.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        rx = NetsimTransport(b, local_port=4000)
        tx = NetsimTransport(a, remote=(b.address, 4000))
        for i, p in enumerate(self.PAYLOADS):
            net.sim.schedule_at(i * 0.5, lambda p=p: tx.send_sync(p))
        net.sim.run()
        return rx.drain(), net.sim.now

    def test_same_deliveries_same_virtual_time(self):
        socket_result = self._run_sockets()
        transport_result = self._run_transports()
        assert socket_result == transport_result

    def test_pair_helper_matches_manual_wiring(self):
        net = Network(seed=7)
        net.add_segment("lan", "10.61.0.0")
        a = net.add_host("a", segment="lan")
        b = net.add_host("b", segment="lan")
        t_a, t_b = netsim_transport_pair(a, b)
        t_a.send_sync(b"one way")
        t_b.send_sync(b"other way")
        net.sim.run()
        assert t_b.drain() == [b"one way"]
        assert t_a.drain() == [b"other way"]
