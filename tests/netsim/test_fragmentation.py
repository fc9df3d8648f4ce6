"""Fragmentation and reassembly tests."""

import pytest

from repro.netsim.addresses import IPAddress
from repro.netsim.fragmentation import FragmentationNeeded, Reassembler, fragment
from repro.netsim.ipv4 import IPV4_HEADER_LEN, IPProtocol, IPv4Header, IPv4Packet


def make_packet(payload_len, **header_overrides):
    fields = dict(
        src=IPAddress("10.0.0.1"),
        dst=IPAddress("10.0.0.2"),
        proto=IPProtocol.UDP,
        identification=42,
    )
    fields.update(header_overrides)
    payload = bytes(i & 0xFF for i in range(payload_len))
    return IPv4Packet(header=IPv4Header(**fields), payload=payload)


class TestFragment:
    def test_small_packet_untouched(self):
        packet = make_packet(100)
        assert fragment(packet, 1500) == [packet]

    def test_fragment_sizes(self):
        packet = make_packet(3000)
        pieces = fragment(packet, 1500)
        assert len(pieces) == 3
        # All but the last carry 8-byte-aligned payloads within the MTU.
        for piece in pieces[:-1]:
            assert len(piece.payload) % 8 == 0
            assert piece.size <= 1500
            assert piece.header.more_fragments

        assert not pieces[-1].header.more_fragments

    def test_payload_reconstructs(self):
        packet = make_packet(5000)
        pieces = fragment(packet, 1500)
        rebuilt = b"".join(p.payload for p in pieces)
        assert rebuilt == packet.payload

    def test_offsets_are_consistent(self):
        packet = make_packet(4000)
        pieces = fragment(packet, 1500)
        expected = 0
        for piece in pieces:
            assert piece.header.fragment_offset * 8 == expected
            expected += len(piece.payload)

    def test_df_raises(self):
        packet = make_packet(3000, dont_fragment=True)
        with pytest.raises(FragmentationNeeded):
            fragment(packet, 1500)

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            fragment(make_packet(100), IPV4_HEADER_LEN + 4)


class TestReassembler:
    def _reassembler(self, now=0.0, timeout=30.0):
        clock = {"now": now}
        return Reassembler(now=lambda: clock["now"], timeout=timeout), clock

    def test_passthrough_unfragmented(self):
        reasm, _ = self._reassembler()
        packet = make_packet(100)
        assert reasm.push(packet) is packet

    def test_in_order_reassembly(self):
        reasm, _ = self._reassembler()
        packet = make_packet(4000)
        pieces = fragment(packet, 1500)
        results = [reasm.push(p) for p in pieces]
        assert results[:-1] == [None] * (len(pieces) - 1)
        assert results[-1].payload == packet.payload
        assert not results[-1].header.more_fragments

    def test_out_of_order_reassembly(self):
        reasm, _ = self._reassembler()
        packet = make_packet(4000)
        pieces = fragment(packet, 1500)
        result = None
        for piece in reversed(pieces):
            result = reasm.push(piece)
        assert result is not None and result.payload == packet.payload

    def test_interleaved_datagrams(self):
        reasm, _ = self._reassembler()
        a = make_packet(3000, identification=1)
        b = make_packet(3000, identification=2)
        pa = fragment(a, 1500)
        pb = fragment(b, 1500)
        done = []
        for pair in zip(pa, pb):
            for piece in pair:
                out = reasm.push(piece)
                if out is not None:
                    done.append(out)
        assert len(done) == 2
        assert {d.header.identification for d in done} == {1, 2}

    def test_duplicate_fragment_harmless(self):
        reasm, _ = self._reassembler()
        packet = make_packet(3000)
        pieces = fragment(packet, 1500)
        reasm.push(pieces[0])
        reasm.push(pieces[0])  # duplicate
        result = None
        for piece in pieces[1:]:
            result = reasm.push(piece)
        assert result is not None and result.payload == packet.payload

    def test_timeout_expires_partials(self):
        reasm, clock = self._reassembler(timeout=30.0)
        packet = make_packet(3000)
        pieces = fragment(packet, 1500)
        reasm.push(pieces[0])
        assert reasm.pending == 1
        clock["now"] = 100.0
        # The next push triggers expiry of the stale partial.
        other = fragment(make_packet(3000, identification=9), 1500)
        reasm.push(other[0])
        assert reasm.expired_datagrams == 1
        # Late-arriving rest of the first datagram can no longer complete
        # with the lost state (a fresh partial starts instead).
        result = None
        for piece in pieces[1:]:
            result = reasm.push(piece)
        assert result is None


class TestReassemblerBounds:
    def _reassembler(self, **kwargs):
        clock = {"now": 0.0}
        return Reassembler(now=lambda: clock["now"], **kwargs), clock

    def test_validation(self):
        with pytest.raises(ValueError):
            Reassembler(now=lambda: 0.0, max_partials=0)
        with pytest.raises(ValueError):
            Reassembler(now=lambda: 0.0, max_fragments=1)

    def test_partial_count_capped_with_oldest_first_eviction(self):
        reasm, _ = self._reassembler(max_partials=4)
        # 6 distinct never-completing datagrams: only 4 partials live.
        for ident in range(6):
            pieces = fragment(make_packet(3000, identification=ident), 1500)
            reasm.push(pieces[0])
        assert reasm.pending == 4
        assert reasm.overflow_drops == 2
        # The two oldest were evicted: their late fragments start fresh
        # partials instead of completing.
        old = fragment(make_packet(3000, identification=0), 1500)
        assert reasm.push(old[1]) is None
        # The newest survived: completing it still works.
        newest = fragment(make_packet(3000, identification=5), 1500)
        done = None
        for piece in newest[1:]:
            done = reasm.push(piece)
        assert done is not None

    def test_fragment_count_per_partial_capped(self):
        reasm, _ = self._reassembler(max_fragments=4)
        packet = make_packet(8000)
        pieces = fragment(packet, 1500)  # 6 fragments > cap of 4
        result = None
        for piece in pieces:
            result = reasm.push(piece)
        assert result is None
        assert reasm.overflow_drops == 1
        # The oversized partial was discarded when piece 5 arrived; the
        # final fragment starts over as a fresh (1-piece) partial.
        assert reasm.pending == 1

    def test_cap_never_breaks_in_budget_reassembly(self):
        reasm, _ = self._reassembler(max_partials=2, max_fragments=8)
        packet = make_packet(6000)
        result = None
        for piece in fragment(packet, 1500):
            result = reasm.push(piece)
        assert result is not None and result.payload == packet.payload
        assert reasm.overflow_drops == 0

    def test_a_piece_ending_past_the_largest_datagram_drops_its_partial(self):
        # Offsets up to 8191 x 8 could otherwise reassemble a payload no
        # IPv4 datagram can carry (its encode() would overflow).
        reasm, _ = self._reassembler()
        first = make_packet(1480, more_fragments=True)
        last = make_packet(1480, fragment_offset=8191)
        assert reasm.push(first) is None
        assert reasm.pending == 1
        assert reasm.push(last) is None
        assert reasm.pending == 0
        assert reasm.overflow_drops == 1
