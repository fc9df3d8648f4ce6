"""Fuzz-style property tests: every decoder fails *cleanly* on garbage.

A network-facing parser must never raise anything but its documented
error on hostile input -- no IndexError, no struct.error, no
OverflowError, no silent corruption.  These tests drive random bytes of
0 to twice each decoder's nominal input through every wire decoder in
the repository (the FBS header under every suite, with and without the
algorithm id; IPv4, UDP and TCP; fragment reassembly; the tcpdump line
codec), and check that what a decoder accepts re-encodes to a
consistent length.  The ``@example``s are the length fields the
simulated stack once trusted from the wire, and a trace time of NaN.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import AlgorithmSuite, MacAlgorithm
from repro.core.errors import HeaderFormatError
from repro.core.header import FBSHeader, header_length
from repro.netsim.addresses import IPAddress
from repro.netsim.fragmentation import Reassembler
from repro.netsim.ipv4 import (
    IPV4_HEADER_LEN,
    IPProtocol,
    IPv4Header,
    IPv4Packet,
    checksum16,
)
from repro.netsim.tcp import TCP_HEADER_LEN, TCPHeader
from repro.netsim.udp import UDP_HEADER_LEN, UDPHeader, UdpLayer
from repro.traces import tcpdump


def garbage_for(nominal):
    """Random bytes, from none to twice a decoder's nominal input."""
    return st.binary(max_size=2 * nominal)


#: Up to twice a nominal 64-byte datagram (the receive contract's too).
garbage = garbage_for(64)

#: Tier-1 runs the default profile's share; ``--hypothesis-profile=nightly``
#: (tests/conftest.py) runs ten times as many.
EXAMPLES = settings.default.max_examples

A, B = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")

SUITES = [AlgorithmSuite(mac=mac, mac_bits=8 * mac.digest_size) for mac in MacAlgorithm]
SUITES.append(AlgorithmSuite(mac_bits=32))


def decoded(decode, error, data):
    """``decode(data)``, or None when it refuses ``data`` with ``error``
    (any other exception fails the test)."""
    try:
        return decode(data)
    except error:
        return None


@st.composite
def ip_datagrams(draw):
    """Garbage, half of it behind a well-formed version byte and header
    checksum so that it reaches the length checks."""
    raw = bytearray(draw(garbage_for(IPV4_HEADER_LEN + 64)))
    if len(raw) >= IPV4_HEADER_LEN and draw(st.booleans()):
        raw[0], raw[10:12] = 0x45, b"\x00\x00"
        raw[10:12] = checksum16(bytes(raw[:IPV4_HEADER_LEN])).to_bytes(2, "big")
    return bytes(raw)


def ip(payload, **fields):
    return IPv4Packet(IPv4Header(src=A, dst=B, proto=IPProtocol.UDP, **fields), payload)


tokens = st.sampled_from(
    ["1.5", "nan", "inf", "-1", "1e400", ">", "tcp", "udp", "999", "10.0.0.1.80",
     "10.0.0.2.53:", "10.0.0.1.99999:", "300.0.0.1.1", "١٠.0.0.1.1"]
)  # fmt: skip
lines = st.text(max_size=96) | st.lists(tokens | st.text(max_size=6), max_size=7).map(
    " ".join
)


class TestDecodersFailCleanly:
    @pytest.mark.parametrize("carry", [False, True], ids=["plain", "algorithm-id"])
    @pytest.mark.parametrize("suite", SUITES, ids=lambda s: f"{s.mac.value}-{s.mac_bits}")
    @given(data=st.data())
    @settings(max_examples=EXAMPLES // 4, deadline=None)
    def test_fbs_header(self, suite, carry, data):
        need = header_length(suite, carry)
        raw = data.draw(garbage_for(need))
        header = decoded(lambda b: FBSHeader.decode(b, suite, carry), HeaderFormatError, raw)
        if header is not None:
            assert len(header.encode(suite, carry)) == need <= len(raw)
            assert FBSHeader.decode(header.encode(suite, carry), suite, carry) == header

    @given(data=ip_datagrams())
    @example(data=IPv4Header(src=A, dst=B, proto=17, total_length=5).encode() + b"abc")
    @settings(max_examples=2 * EXAMPLES, deadline=None)
    def test_ipv4_packet(self, data):
        packet = decoded(IPv4Packet.decode, ValueError, data)
        if packet is not None:
            size = packet.header.total_length
            assert IPV4_HEADER_LEN + len(packet.payload) == size <= len(data)
            assert len(packet.encode()) == size

    @given(data=ip_datagrams())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_ipv4_header(self, data):
        header = decoded(IPv4Header.decode, ValueError, data)
        if header is not None:
            again = header.encode()
            assert IPv4Header.decode(again) == header
            # Every byte survives but the reserved flag bit (RFC 791: zero)
            # and the checksum that covers it.
            assert again[6] == data[6] & 0x7F
            assert again[:6] + again[7:10] + again[12:] == (
                data[:6] + data[7:10] + data[12:IPV4_HEADER_LEN]
            )

    @given(payload=garbage_for(UDP_HEADER_LEN + 64), unchecked=st.booleans())
    @example(payload=UDPHeader(sport=4000, dport=5000, length=0).encode(), unchecked=True)
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_udp(self, payload, unchecked):
        if unchecked:  # a zero checksum field: "no checksum" (RFC 768)
            payload = payload[:6] + b"\x00\x00" + payload[8:]
        header = decoded(UDPHeader.decode, ValueError, payload)
        layer = UdpLayer(transmit=lambda packet: None, local_address=lambda dst: B)
        delivered = []
        if header is not None:
            assert header.encode() == payload[:UDP_HEADER_LEN]
            layer.bind(header.dport, lambda body, src, sport: delivered.append(body))
        layer.deliver(ip(payload))
        assert len(delivered) + layer.checksum_failures + layer.no_port == 1
        if delivered:
            assert UDP_HEADER_LEN + len(delivered[0]) == header.length <= len(payload)

    @given(data=garbage_for(TCP_HEADER_LEN))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_tcp_header(self, data):
        header = decoded(TCPHeader.decode, ValueError, data)
        if header is not None:
            assert len(header.encode()) == TCP_HEADER_LEN

    @given(
        pieces=st.lists(
            st.tuples(st.integers(0, 8191), st.booleans(), st.integers(0, 2), garbage),
            max_size=8,
        )
    )
    @example(pieces=[(0, True, 0, bytes(1480)), (8191, False, 0, bytes(1480))])
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_reassembly(self, pieces):
        reassembler = Reassembler(now=lambda: 0.0)
        for offset, more, ident, payload in pieces:
            fields = dict(fragment_offset=offset, more_fragments=more, identification=ident)
            whole = reassembler.push(ip(payload, **fields))
            if whole is not None:
                assert len(whole.encode()) == IPV4_HEADER_LEN + len(whole.payload) <= 0xFFFF

    @given(line=lines)
    @example(line="nan 10.0.0.1.1000 > 10.0.0.2.80: tcp 100")
    @settings(max_examples=3 * EXAMPLES // 2, deadline=None)
    def test_tcpdump_line(self, line):
        record = decoded(tcpdump.parse_line, ValueError, line)
        if record is not None:
            again = tcpdump.parse_line(tcpdump.format_record(record))
            assert (again.five_tuple, again.size) == (record.five_tuple, record.size)


class TestCodecRoundTrips:
    @given(
        time=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        sport=st.integers(min_value=0, max_value=65535),
        dport=st.integers(min_value=0, max_value=65535),
        proto=st.sampled_from([6, 17, 1, 47]),
        size=st.integers(min_value=0, max_value=65535),
        saddr=st.integers(min_value=0, max_value=2**32 - 1),
        daddr=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_tcpdump_roundtrip(self, time, sport, dport, proto, size, saddr, daddr):
        from repro.netsim.addresses import FiveTuple, IPAddress
        from repro.traces.records import PacketRecord

        record = PacketRecord(
            time=round(time, 6),
            five_tuple=FiveTuple(
                proto=proto,
                saddr=IPAddress(saddr),
                sport=sport,
                daddr=IPAddress(daddr),
                dport=dport,
            ),
            size=size,
        )
        parsed = tcpdump.parse_line(tcpdump.format_record(record))
        assert parsed.five_tuple == record.five_tuple
        assert parsed.size == record.size
        assert parsed.time == pytest.approx(record.time, abs=1e-6)

    @given(
        src=st.integers(min_value=0, max_value=2**32 - 1),
        dst=st.integers(min_value=0, max_value=2**32 - 1),
        proto=st.integers(min_value=0, max_value=255),
        ttl=st.integers(min_value=0, max_value=255),
        ident=st.integers(min_value=0, max_value=65535),
        payload=st.binary(max_size=256),
    )
    @settings(max_examples=100, deadline=None)
    def test_ipv4_roundtrip(self, src, dst, proto, ttl, ident, payload):
        from repro.netsim.addresses import IPAddress

        packet = IPv4Packet(
            header=IPv4Header(
                src=IPAddress(src),
                dst=IPAddress(dst),
                proto=proto,
                ttl=ttl,
                identification=ident,
            ),
            payload=payload,
        )
        decoded = IPv4Packet.decode(packet.encode())
        assert decoded.payload == payload
        assert decoded.header.src == packet.header.src
        assert decoded.header.ttl == ttl
