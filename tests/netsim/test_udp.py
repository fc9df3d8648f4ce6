"""UDP layer tests."""

import pytest

from repro.netsim import Network
from repro.netsim.addresses import IPAddress
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.sockets import UdpSocket
from repro.netsim.udp import MAX_UDP_PAYLOAD, UDP_HEADER_LEN, UDPHeader


class TestHeaderCodec:
    def test_roundtrip(self):
        header = UDPHeader(sport=1024, dport=53, length=36, checksum=0xABCD)
        decoded = UDPHeader.decode(header.encode())
        assert (decoded.sport, decoded.dport, decoded.length, decoded.checksum) == (
            1024,
            53,
            36,
            0xABCD,
        )

    def test_truncated(self):
        with pytest.raises(ValueError):
            UDPHeader.decode(b"\x00\x01")

    def test_length_constant(self):
        assert UDP_HEADER_LEN == 8


def build_pair(seed=0):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    return net, net.add_host("a", segment="lan"), net.add_host("b", segment="lan")


class TestDelivery:
    def test_roundtrip(self):
        net, a, b = build_pair()
        rx = UdpSocket(b, 5000)
        tx = UdpSocket(a)
        tx.sendto(b"ping", b.address, 5000)
        net.sim.run()
        payload, src, sport = rx.received[0]
        assert payload == b"ping"
        assert src == a.address
        assert sport == tx.port

    def test_reply_path(self):
        net, a, b = build_pair()
        rx = UdpSocket(b, 5000)
        rx.on_receive = lambda payload, src, sport: rx_sock_reply(payload, src, sport)
        replies = UdpSocket(a, 4000)

        def rx_sock_reply(payload, src, sport):
            b.udp.sendto(b"pong:" + payload, 5000, src, sport)

        a.udp.sendto(b"ping", 4000, b.address, 5000)
        net.sim.run()
        assert replies.received[0][0] == b"pong:ping"

    def test_unbound_port_counted(self):
        net, a, b = build_pair()
        tx = UdpSocket(a)
        tx.sendto(b"void", b.address, 9999)
        net.sim.run()
        assert b.udp.no_port == 1

    @pytest.mark.parametrize("length", range(UDP_HEADER_LEN))
    def test_length_shorter_than_the_header_is_dropped(self, length):
        net, a, b = build_pair()
        rx = UdpSocket(b, 5000)
        header = UDPHeader(sport=4000, dport=5000, length=length)
        a.send_raw(
            IPv4Packet(
                header=IPv4Header(src=a.address, dst=b.address, proto=IPProtocol.UDP),
                payload=header.encode(),
            )
        )
        net.sim.run()
        assert rx.received == []
        assert b.udp.checksum_failures == 1

    def test_large_datagram_fragments_and_reassembles(self):
        net, a, b = build_pair()
        rx = UdpSocket(b, 5000)
        tx = UdpSocket(a)
        blob = bytes(range(256)) * 32  # 8 KB: fragments on a 1500 MTU
        tx.sendto(blob, b.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == blob
        assert a.stack.stats.fragments_created >= 6

    def test_the_largest_datagram_is_delivered(self):
        net, a, b = build_pair()
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(bytes(MAX_UDP_PAYLOAD), b.address, 5000)
        net.sim.run()
        assert len(rx.received[0][0]) == MAX_UDP_PAYLOAD == 65535 - 20 - 8

    @pytest.mark.parametrize("size", [MAX_UDP_PAYLOAD + 1, MAX_UDP_PAYLOAD + 20, 70000])
    def test_a_larger_payload_is_refused_naming_the_limit(self, size):
        # What a kernel answers with EMSGSIZE; past 65,527 B the length
        # field itself would overflow.
        net, a, b = build_pair()
        with pytest.raises(ValueError, match="65507 B limit"):
            a.udp.sendto(bytes(size), 4000, b.address, 5000)
        assert a.udp.datagrams_sent == 0

    def test_ephemeral_ports_unique(self):
        net, a, _ = build_pair()
        ports = {UdpSocket(a).port for _ in range(50)}
        assert len(ports) == 50

    def test_checksum_detects_corruption(self):
        net, a, b = build_pair()
        rx = UdpSocket(b, 5000)
        # Corrupt frames in flight by tapping and re-injecting is covered
        # by attack tests; here, verify the checksum flag plumbs through.
        assert a.udp.compute_checksums
        tx = UdpSocket(a)
        tx.sendto(b"checked", b.address, 5000)
        net.sim.run()
        assert rx.received

    def test_computed_zero_checksum_goes_out_as_all_ones(self):
        # RFC 768: a zero field means "no checksum", so a datagram whose
        # checksum computes to zero (1 in 65,536) must carry 0xFFFF or the
        # receiver skips verification and corruption passes.
        net, a, b = build_pair()
        wire = []
        net.segment("lan").attach_tap(wire.append)
        rx = UdpSocket(b, 5000)
        a.udp.sendto(b"\x00\x00", 4000, b.address, 5000)
        net.sim.run()
        # A payload equal to the checksum of the zero-payload datagram
        # brings the one's-complement sum to 0xFFFF: checksum 0x0000.
        a.udp.sendto(wire[0][26:28], 4000, b.address, 5000)
        net.sim.run()
        assert wire[1][26:28] == b"\xff\xff"
        assert [payload for payload, _, _ in rx.received] == [b"\x00\x00", wire[0][26:28]]
        damaged = bytearray(wire[1])
        damaged[-1] ^= 0x01
        b.stack.ip_input(bytes(damaged))
        assert b.udp.checksum_failures == 1
        assert len(rx.received) == 2

    def test_checksums_can_be_disabled(self):
        net, a, b = build_pair()
        a.udp.compute_checksums = False
        rx = UdpSocket(b, 5000)
        UdpSocket(a).sendto(b"raw", b.address, 5000)
        net.sim.run()
        assert rx.received[0][0] == b"raw"


class TestBinding:
    def test_double_bind_rejected(self):
        _, a, _ = build_pair()
        UdpSocket(a, 6000)
        with pytest.raises(ValueError):
            UdpSocket(a, 6000)

    def test_rebind_after_close(self):
        _, a, _ = build_pair()
        sock = UdpSocket(a, 6000)
        sock.close()
        UdpSocket(a, 6000)  # no error

    def test_rebind_wait_guard(self):
        net, a, _ = build_pair()
        a.udp.rebind_wait = 100.0
        sock = UdpSocket(a, 6000)
        sock.close()
        with pytest.raises(ValueError):
            UdpSocket(a, 6000)
        net.sim.run(until=200.0)
        UdpSocket(a, 6000)  # allowed after the wait
