"""Fuzz-style property tests: every decoder fails *cleanly* on garbage.

A network-facing parser must never raise anything but its documented
error on hostile input -- no IndexError, no struct.error, no silent
corruption.  These tests drive random bytes through every wire decoder
in the repository.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AlgorithmSuite
from repro.core.errors import HeaderFormatError
from repro.core.header import FBSHeader
from repro.netsim.ipv4 import IPv4Header, IPv4Packet
from repro.netsim.tcp import TCPHeader
from repro.netsim.udp import UDPHeader
from repro.traces import tcpdump

garbage = st.binary(min_size=0, max_size=128)


class TestDecodersFailCleanly:
    @given(data=garbage)
    @settings(max_examples=200, deadline=None)
    def test_ipv4_packet(self, data):
        try:
            packet = IPv4Packet.decode(data)
            # If it parsed, invariants hold.
            assert packet.header.total_length >= 20
        except ValueError:
            pass

    @given(data=garbage)
    @settings(max_examples=200, deadline=None)
    def test_ipv4_header(self, data):
        try:
            IPv4Header.decode(data)
        except ValueError:
            pass

    @given(data=garbage)
    @settings(max_examples=100, deadline=None)
    def test_fbs_header(self, data):
        suite = AlgorithmSuite()
        try:
            header = FBSHeader.decode(data, suite)
            assert 0 <= header.sfl < 2**64
        except HeaderFormatError:
            pass

    @given(data=garbage)
    @settings(max_examples=100, deadline=None)
    def test_udp_header(self, data):
        try:
            UDPHeader.decode(data)
        except ValueError:
            pass

    @given(data=garbage)
    @settings(max_examples=100, deadline=None)
    def test_tcp_header(self, data):
        try:
            TCPHeader.decode(data)
        except ValueError:
            pass

    @given(line=st.text(max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_tcpdump_line(self, line):
        try:
            record = tcpdump.parse_line(line)
            assert record.size >= 0
        except ValueError:
            pass


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
