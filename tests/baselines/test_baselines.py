"""Baseline scheme tests: delivery, protection, and their signature
weaknesses/costs relative to FBS."""

import struct

import pytest

from repro.baselines import SCHEMES, GenericNull, install_scheme
from repro.core.keying import Principal
from repro.crypto.des import DES
from repro.crypto.modes import decrypt_cbc
from repro.netsim import Network
from repro.netsim.ipv4 import IPProtocol, IPv4Header, IPv4Packet
from repro.netsim.sockets import UdpSocket


def build_pair(seed=0):
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    return net, net.add_host("a", segment="lan"), net.add_host("b", segment="lan")


def roundtrip(net, a, b, message=b"baseline probe", port=5000):
    rx = UdpSocket(b, port)
    UdpSocket(a).sendto(message, b.address, port)
    net.sim.run()
    return rx.received[0][0] if rx.received else None


def installed(scheme, seed):
    """A two-host LAN with ``scheme`` on both ends."""
    net, a, b = build_pair(seed)
    module_a, module_b = install_scheme(scheme, (a, b), seed)
    return net, a, b, module_a, module_b


def tap(net):
    frames = []
    net.segment("lan").attach_tap(frames.append)
    return frames


def flip_last_bit(frame):
    packet = IPv4Packet.decode(frame)
    packet.payload = packet.payload[:-1] + bytes([packet.payload[-1] ^ 1])
    return packet.encode()


class TestGeneric:
    def test_passthrough(self):
        net, a, b = build_pair()
        a.install_security(GenericNull())
        b.install_security(GenericNull())
        assert roundtrip(net, a, b) == b"baseline probe"

    def test_zero_overhead(self):
        assert GenericNull().header_overhead() == 0


class TestHostPair:
    def test_roundtrip(self):
        net, a, b, _, _ = installed("host-pair", 1)
        assert roundtrip(net, a, b) == b"baseline probe"

    def test_wire_is_encrypted(self):
        net, a, b, _, _ = installed("host-pair", 2)
        frames = tap(net)
        assert roundtrip(net, a, b, b"WIRE-SECRET") == b"WIRE-SECRET"
        assert all(b"WIRE-SECRET" not in f for f in frames)

    def test_mac_variant_rejects_tamper(self):
        net, a, b, _, module_b = installed("host-pair-mac", 3)
        frames = tap(net)
        assert roundtrip(net, a, b) == b"baseline probe"
        b.stack.ip_input(flip_last_bit(frames[0]))
        assert module_b.inbound_rejected == 1

    def test_single_key_for_all_traffic(self):
        # The structural weakness: every conversation shares one key.
        net, a, b, module, _ = installed("host-pair", 4)
        peer = Principal.from_ip(b.address)
        assert module.master_key_for(peer).reveal() == module.master_key_for(peer).reveal()


class TestPerDatagram:
    def test_roundtrip(self):
        net, a, b, _, _ = installed("host-pair-per-datagram", 5)
        assert roundtrip(net, a, b) == b"baseline probe"

    def test_fresh_key_every_datagram(self):
        net, a, b, module, _ = installed("host-pair-per-datagram", 6)
        rx = UdpSocket(b, 5000)
        tx = UdpSocket(a)
        for i in range(4):
            tx.sendto(b"msg %d" % i, b.address, 5000)
        net.sim.run()
        assert len(rx.received) == 4
        assert module.keys_generated == 4  # the per-datagram cost

    def test_tamper_rejected(self):
        net, a, b, _, module_b = installed("host-pair-per-datagram", 7)
        frames = tap(net)
        roundtrip(net, a, b)
        b.stack.ip_input(flip_last_bit(frames[0]))
        assert module_b.inbound_rejected == 1


class TestKdc:
    def _pair_with_kdc(self, seed):
        net, a, b, module_a, module_b = installed("kdc-session", seed)
        return net, a, b, module_a.kdc, module_a, module_b

    def test_roundtrip(self):
        net, a, b, _, _, _ = self._pair_with_kdc(8)
        assert roundtrip(net, a, b) == b"baseline probe"

    def test_setup_messages_violate_datagram_semantics(self):
        net, a, b, kdc, module_a, _ = self._pair_with_kdc(9)
        roundtrip(net, a, b)
        # The first datagram required a KDC exchange: extra messages and
        # a round-trip delay -- exactly what FBS's zero-message keying
        # avoids.
        assert module_a.setup_messages == 2
        assert module_a.setup_delay_seconds > 0
        assert kdc.tickets_issued == 1

    def test_session_reuse_no_new_exchange(self):
        net, a, b, kdc, module_a, _ = self._pair_with_kdc(10)
        rx = UdpSocket(b, 5000)
        tx = UdpSocket(a)
        for _ in range(5):
            tx.sendto(b"m", b.address, 5000)
        net.sim.run()
        assert len(rx.received) == 5
        assert kdc.tickets_issued == 1  # hard state amortizes the exchange

    def test_hard_state_loss_recovers_via_carried_ticket(self):
        net, a, b, kdc, module_a, module_b = self._pair_with_kdc(11)
        roundtrip(net, a, b)
        module_b.drop_hard_state()  # receiver crash
        rx = UdpSocket(b, 5001)
        UdpSocket(a).sendto(b"after crash", b.address, 5001)
        net.sim.run()
        # The ticket carried in every datagram re-primes the receiver.
        assert rx.received[0][0] == b"after crash"

    def test_sender_state_loss_needs_new_exchange(self):
        net, a, b, kdc, module_a, _ = self._pair_with_kdc(12)
        roundtrip(net, a, b)
        module_a.drop_hard_state()
        roundtrip(net, a, b, port=5001)
        assert kdc.tickets_issued == 2

    def test_unregistered_destination_fails(self):
        net, a, b = build_pair(13)
        (module_a,) = install_scheme("kdc-session", (a,), 13)
        # b never registered with this KDC.
        assert roundtrip(net, a, b) is None
        # A datagram refused on the way *out* is not an inbound rejection.
        assert module_a.outbound_dropped == 1
        assert module_a.inbound_rejected == 0


class TestPhoturis:
    def _pair(self, seed):
        return installed("photuris-session", seed)

    def test_roundtrip(self):
        net, a, b, _, _ = self._pair(14)
        assert roundtrip(net, a, b) == b"baseline probe"

    def test_exchange_costs_counted(self):
        net, a, b, module_a, module_b = self._pair(15)
        roundtrip(net, a, b)
        assert module_a.setup_messages == 4  # two round trips
        assert module_a.exchanges == 1
        assert module_a.setup_delay_seconds > 0.1  # two modexps dominate

    def test_hard_state_loss_blackholes(self):
        net, a, b, module_a, module_b = self._pair(16)
        roundtrip(net, a, b)
        module_b.drop_hard_state()  # receiver loses the SA
        rx = UdpSocket(b, 5001)
        UdpSocket(a).sendto(b"lost", b.address, 5001)
        net.sim.run()
        # Sender still uses its SA; receiver cannot find the SPI.
        assert rx.received == []
        assert module_b.unknown_spi == 1

    def test_unregistered_destination_fails(self):
        net, a, b = build_pair(22)
        (module_a,) = install_scheme("photuris-session", (a,), 22)
        # b never joined the rendezvous registry: no exchange, no SA.
        assert roundtrip(net, a, b) is None
        assert module_a.outbound_dropped == 1
        assert module_a.inbound_rejected == 0
        assert module_a.exchanges == 0


class TestSkip:
    def _pair(self, seed):
        return installed("skip", seed)

    def test_roundtrip(self):
        net, a, b, _, _ = self._pair(17)
        assert roundtrip(net, a, b) == b"baseline probe"

    def test_zero_message_keying(self):
        # Like FBS: the very first datagram goes through with no setup.
        net, a, b, module_a, _ = self._pair(18)
        assert roundtrip(net, a, b) is not None
        assert not hasattr(module_a, "setup_messages")

    def test_per_datagram_packet_keys(self):
        net, a, b, module_a, _ = self._pair(19)
        rx = UdpSocket(b, 5000)
        tx = UdpSocket(a)
        for _ in range(3):
            tx.sendto(b"m", b.address, 5000)
        net.sim.run()
        assert len(rx.received) == 3
        # Section 7.4: SKIP generates a key per datagram, FBS per flow.
        assert module_a.packet_keys_generated == 3

    def test_interval_key_is_per_hour(self):
        net, a, b, module_a, _ = self._pair(20)
        peer = Principal.from_ip(b.address)
        hour_0, hour_1 = (module_a.interval_key(peer, n).reveal() for n in (0, 1))
        assert hour_0 != hour_1
        assert module_a.interval_key(peer, 0).reveal() == hour_0

    def test_wire_encrypted(self):
        net, a, b, _, _ = self._pair(21)
        frames = tap(net)
        assert roundtrip(net, a, b, b"SKIP-SECRET") == b"SKIP-SECRET"
        assert all(b"SKIP-SECRET" not in f for f in frames)

    def test_the_hourly_key_unwraps_every_packet_key_of_its_hour(self):
        """The key hierarchy ``tests/spec/knowledge.py`` states for SKIP:
        K_ijn and the clear ``E_Kijn(Kp)`` yield each datagram's Kp."""
        net, a, b, module_a, module_b = self._pair(22)
        frames = tap(net)
        rx = UdpSocket(b, 5000)
        for i in range(3):
            UdpSocket(a).sendto(b"HOUR-%d" % i, b.address, 5000)
        net.sim.run()
        kijn = module_a.interval_key(Principal.from_ip(b.address), 0)
        opened = []
        for frame in frames:
            prefix, iv, _, body = module_b.split(IPv4Packet.decode(frame).payload)
            kp = DES(kijn).decrypt_block(struct.unpack(">I8s", prefix)[1])
            opened.append(decrypt_cbc(DES(kp), iv, body)[8:])
        assert opened == [payload for payload, _, _ in rx.received] == [b"HOUR-0", b"HOUR-1", b"HOUR-2"]


@pytest.mark.parametrize("scheme", sorted(set(SCHEMES) - {"generic"}))
def test_port_500_bytes_with_a_wrong_udp_length_are_not_bypassed(scheme):
    # The first bytes of a protected datagram are the scheme's own
    # (sfl, IV, wrapped key, ticket, SPI); when they happen to read as
    # the certificate port the UDP length field still has to agree
    # before the datagram may skip authentication.
    net, a, b, _, module_b = installed(scheme, 30)
    lookalike = struct.pack(">HHHH", 500, 500, 9999, 0) + bytes(72)
    packet = IPv4Packet(
        header=IPv4Header(src=a.address, dst=b.address, proto=IPProtocol.UDP),
        payload=lookalike,
    )
    assert module_b.inbound(packet) is None
    assert module_b.inbound_rejected == 1

    genuine = struct.pack(">HHHH", 500, 500, len(lookalike), 0) + bytes(72)
    packet.payload = genuine
    assert module_b.inbound(packet) is packet
    assert packet.payload == genuine
