"""Security flow header codec tests (Figure 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AlgorithmSuite, MacAlgorithm
from repro.core.errors import HeaderFormatError
from repro.core.header import FBS_HEADER_LEN, FBSHeader, header_length


@pytest.fixture
def suite():
    return AlgorithmSuite()


def make_header(**overrides):
    fields = dict(
        sfl=0x0123456789ABCDEF,
        confounder=0xDEADBEEF,
        mac=bytes(range(16)),
        timestamp=900_000,
    )
    fields.update(overrides)
    return FBSHeader(**fields)


class TestCodec:
    def test_roundtrip(self, suite):
        header = make_header()
        decoded = FBSHeader.decode(header.encode(suite), suite)
        assert decoded == header

    def test_paper_sizes(self, suite):
        # sfl 64b + confounder 32b + MAC 128b + timestamp 32b = 32 bytes.
        assert FBS_HEADER_LEN == 32
        assert len(make_header().encode(suite)) == 32

    def test_field_order_is_figure_2(self, suite):
        raw = make_header().encode(suite)
        assert raw[0:8] == (0x0123456789ABCDEF).to_bytes(8, "big")  # sfl
        assert raw[8:12] == bytes.fromhex("deadbeef")  # confounder
        assert raw[12:28] == bytes(range(16))  # MAC
        assert raw[28:32] == (900_000).to_bytes(4, "big")  # timestamp

    def test_decode_with_trailing_body(self, suite):
        raw = make_header().encode(suite) + b"payload bytes"
        decoded = FBSHeader.decode(raw, suite)
        assert decoded.timestamp == 900_000

    def test_truncated_rejected(self, suite):
        with pytest.raises(HeaderFormatError):
            FBSHeader.decode(b"\x00" * 10, suite)

    def test_mac_size_must_match_suite(self, suite):
        header = make_header(mac=bytes(8))
        with pytest.raises(ValueError):
            header.encode(suite)


class TestAlgorithmIdField:
    def test_roundtrip_with_suite_id(self, suite):
        header = make_header()
        raw = header.encode(suite, carry_algorithm_id=True)
        assert len(raw) == header_length(suite, True) == 34
        decoded = FBSHeader.decode(raw, suite, carry_algorithm_id=True)
        assert decoded == header

    def test_suite_mismatch_rejected(self):
        suite1 = AlgorithmSuite(suite_id=1)
        suite2 = AlgorithmSuite(suite_id=2)
        raw = make_header().encode(suite1, carry_algorithm_id=True)
        with pytest.raises(HeaderFormatError):
            FBSHeader.decode(raw, suite2, carry_algorithm_id=True)


class TestVariants:
    def test_truncated_mac_suite(self):
        suite = AlgorithmSuite(mac_bits=64)
        header = make_header(mac=bytes(8))
        raw = header.encode(suite)
        assert len(raw) == 8 + 4 + 8 + 4
        assert FBSHeader.decode(raw, suite).mac == bytes(8)

    def test_shs_mac_suite(self):
        suite = AlgorithmSuite(mac=MacAlgorithm.KEYED_SHS, mac_bits=160)
        header = make_header(mac=bytes(20))
        raw = header.encode(suite)
        assert len(raw) == 8 + 4 + 20 + 4


class TestDerivedFields:
    def test_iv_duplicates_confounder(self):
        # Section 7.2: "the confounder is first duplicated to provide a
        # 64-bit quantity".
        header = make_header(confounder=0x01020304)
        assert header.iv() == bytes.fromhex("0102030401020304")


class TestLayoutOverRealBytes:
    """Figure 2 and the S6 MAC input, spelled with ``to_bytes`` so that
    no struct format string is on both sides of the comparison."""

    @settings(max_examples=200, deadline=None)
    @given(
        sfl=st.integers(0, (1 << 64) - 1),
        confounder=st.integers(0, (1 << 32) - 1),
        timestamp=st.integers(0, (1 << 32) - 1),
        mac=st.sampled_from([32, 64, 128, 160]).flatmap(
            lambda bits: st.binary(min_size=bits // 8, max_size=bits // 8)
        ),
        suite_id=st.integers(0, 255),
        carry=st.booleans(),
        body=st.binary(max_size=40),
    )
    def test_every_field_sits_where_the_paper_puts_it(
        self, sfl, confounder, timestamp, mac, suite_id, carry, body
    ):
        suite = AlgorithmSuite(
            suite_id=suite_id,
            mac=MacAlgorithm.KEYED_SHS if len(mac) == 20 else MacAlgorithm.KEYED_MD5,
            mac_bits=len(mac) * 8,
        )
        header = FBSHeader(sfl=sfl, confounder=confounder, mac=mac, timestamp=timestamp)
        c, t = confounder.to_bytes(4, "big"), timestamp.to_bytes(4, "big")
        wire = header.encode(suite, carry)
        assert wire == (
            (bytes([suite_id, 0]) if carry else b"") + sfl.to_bytes(8, "big") + c + mac + t
        )
        assert len(wire) == header_length(suite, carry)
        assert FBSHeader.decode(wire + body, suite, carry) == header
        assert header.mac_input(body) == c + t + body  # Figure 4, S6
        assert header.iv() == c + c  # Section 7.2


class TestValidation:
    def test_sfl_range(self):
        with pytest.raises(ValueError):
            make_header(sfl=1 << 64)

    def test_confounder_range(self):
        with pytest.raises(ValueError):
            make_header(confounder=-1)

    def test_timestamp_range(self):
        with pytest.raises(ValueError):
            make_header(timestamp=1 << 32)
