"""IPv4 header/packet codec and checksum tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.addresses import IPAddress
from repro.netsim.ipv4 import (
    IPV4_HEADER_LEN,
    IPProtocol,
    IPv4Header,
    IPv4Packet,
    checksum16,
)


def make_header(**overrides):
    fields = dict(
        src=IPAddress("10.0.0.1"),
        dst=IPAddress("10.0.0.2"),
        proto=IPProtocol.UDP,
        identification=7,
    )
    fields.update(overrides)
    return IPv4Header(**fields)


def rfc1071_byte_loop(data: bytes) -> int:
    """The reference ``checksum16`` is held to: one 16-bit word at a
    time, end-around carry folded in after every addition."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksum:
    @given(data=st.binary(min_size=0, max_size=3000))
    @example(data=b"")
    @example(data=b"\xff")
    @example(data=bytes(3000))
    @example(data=bytes(2999))
    @example(data=b"\xff" * 3000)
    @example(data=b"\xff" * 2999)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_rfc1071_byte_loop(self, data):
        assert checksum16(data) == rfc1071_byte_loop(data)

    def test_rfc1071_example(self):
        # Classic example from RFC 1071 materials.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert checksum16(data) == 0x220D

    def test_odd_length_padded(self):
        assert checksum16(b"\x01") == checksum16(b"\x01\x00")

    def test_verification_property(self):
        header = make_header().encode()
        assert checksum16(header) == 0


class TestHeaderCodec:
    def test_roundtrip(self):
        header = make_header(ttl=17, tos=0x10, dont_fragment=True)
        header.total_length = 99
        decoded = IPv4Header.decode(header.encode())
        assert decoded.src == header.src
        assert decoded.dst == header.dst
        assert decoded.proto == header.proto
        assert decoded.ttl == 17
        assert decoded.tos == 0x10
        assert decoded.dont_fragment is True
        assert decoded.total_length == 99

    def test_fragment_fields_roundtrip(self):
        header = make_header(more_fragments=True, fragment_offset=185)
        decoded = IPv4Header.decode(header.encode())
        assert decoded.more_fragments and decoded.fragment_offset == 185

    def test_encoded_length(self):
        assert len(make_header().encode()) == IPV4_HEADER_LEN

    def test_corruption_detected(self):
        raw = bytearray(make_header().encode())
        raw[8] ^= 0xFF  # flip the TTL
        with pytest.raises(ValueError):
            IPv4Header.decode(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            IPv4Header.decode(b"\x45\x00\x00")

    def test_wrong_version_rejected(self):
        raw = bytearray(make_header().encode())
        raw[0] = 0x65  # version 6
        with pytest.raises(ValueError):
            IPv4Header.decode(bytes(raw))

    def test_bad_fragment_offset_rejected(self):
        header = make_header(fragment_offset=9000)
        with pytest.raises(ValueError):
            header.encode()


class TestPacketCodec:
    def test_roundtrip(self):
        packet = IPv4Packet(header=make_header(), payload=b"hello ip layer")
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded.payload == b"hello ip layer"
        assert decoded.header.src == packet.header.src

    def test_encode_fixes_total_length(self):
        packet = IPv4Packet(header=make_header(), payload=b"x" * 100)
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded.header.total_length == IPV4_HEADER_LEN + 100
        assert decoded.size == IPV4_HEADER_LEN + 100

    def test_total_length_bounds_payload(self):
        raw = IPv4Packet(header=make_header(), payload=b"abcdef").encode()
        # Ethernet-style trailing padding must be ignored.
        decoded = IPv4Packet.decode(raw + b"\x00" * 10)
        assert decoded.payload == b"abcdef"

    def test_overlong_total_length_rejected(self):
        packet = IPv4Packet(header=make_header(), payload=b"abcdef")
        packet.header.total_length = 2000
        raw = packet.header.encode() + packet.payload
        with pytest.raises(ValueError):
            IPv4Packet.decode(raw)

    @pytest.mark.parametrize("total_length", [0, 5, 19])
    def test_total_length_shorter_than_the_header_is_a_bad_header(self, total_length):
        from repro.netsim import Network

        net = Network(seed=0)
        net.add_segment("lan", "10.0.0.0")
        host = net.add_host("b", segment="lan")
        header = make_header(dst=host.address, total_length=total_length)
        raw = header.encode() + b"abcdef"
        with pytest.raises(ValueError):
            IPv4Packet.decode(raw)
        host.stack.ip_input(raw)
        assert host.stack.stats.bad_headers == 1
        assert host.stack.stats.packets_delivered == 0

    def test_empty_payload(self):
        packet = IPv4Packet(header=make_header(), payload=b"")
        assert IPv4Packet.decode(packet.encode()).payload == b""
