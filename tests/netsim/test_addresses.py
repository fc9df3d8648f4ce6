"""IPAddress and FiveTuple tests."""

import pytest

from repro.netsim.addresses import FiveTuple, IPAddress


class TestIPAddress:
    def test_from_string(self):
        assert int(IPAddress("10.0.0.1")) == (10 << 24) + 1

    def test_str_roundtrip(self):
        for text in ("0.0.0.0", "255.255.255.255", "192.168.1.42"):
            assert str(IPAddress(text)) == text

    def test_from_int(self):
        assert str(IPAddress(0x0A000001)) == "10.0.0.1"

    def test_copy_constructor(self):
        a = IPAddress("1.2.3.4")
        assert IPAddress(a) == a

    def test_bytes_roundtrip(self):
        a = IPAddress("172.16.254.3")
        assert IPAddress.from_bytes(a.to_bytes()) == a

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3"])
    def test_rejects_malformed_strings(self, bad):
        with pytest.raises(ValueError):
            IPAddress(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(ValueError):
            IPAddress(2**32)
        with pytest.raises(ValueError):
            IPAddress(-1)

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            IPAddress(1.5)

    def test_hashable_and_ordered(self):
        a, b = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")
        assert a < b
        assert len({a, b, IPAddress("10.0.0.1")}) == 2

    def test_subnet_membership(self):
        a = IPAddress("10.1.2.3")
        assert a.in_subnet(IPAddress("10.1.2.0"), 24)
        assert a.in_subnet(IPAddress("10.0.0.0"), 8)
        assert not a.in_subnet(IPAddress("10.1.3.0"), 24)
        assert a.in_subnet(IPAddress("0.0.0.0"), 0)  # default route
        assert a.in_subnet(a, 32)

    def test_bad_prefix_length(self):
        with pytest.raises(ValueError):
            IPAddress("10.0.0.1").in_subnet(IPAddress("10.0.0.0"), 33)

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            IPAddress.from_bytes(b"\x01\x02\x03")


class TestFiveTuple:
    def _tuple(self):
        return FiveTuple(
            proto=17,
            saddr=IPAddress("10.0.0.1"),
            sport=1024,
            daddr=IPAddress("10.0.0.2"),
            dport=53,
        )

    def test_pack_unpack_roundtrip(self):
        ft = self._tuple()
        assert FiveTuple.unpack(ft.pack()) == ft

    def test_pack_length(self):
        assert len(self._tuple().pack()) == 13

    def test_hashable(self):
        assert len({self._tuple(), self._tuple()}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FiveTuple(proto=300, saddr=IPAddress(0), sport=1, daddr=IPAddress(0), dport=1)
        with pytest.raises(ValueError):
            FiveTuple(proto=6, saddr=IPAddress(0), sport=70000, daddr=IPAddress(0), dport=1)

    def test_str_contains_endpoints(self):
        text = str(self._tuple())
        assert "10.0.0.1:1024" in text and "10.0.0.2:53" in text
