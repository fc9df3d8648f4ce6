"""Property-based tests on the FBS header codec.

Round trips, tampering and batch cuts of whole datagrams are checked
against the specification by ``tests/property/test_soft_state_machine.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.header import FBSHeader


class TestHeaderProperties:
    @given(
        sfl=st.integers(min_value=0, max_value=2**64 - 1),
        confounder=st.integers(min_value=0, max_value=2**32 - 1),
        timestamp=st.integers(min_value=0, max_value=2**32 - 1),
        mac=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_header_codec_roundtrip(self, sfl, confounder, timestamp, mac):
        from repro.core.config import AlgorithmSuite

        suite = AlgorithmSuite()
        header = FBSHeader(sfl=sfl, confounder=confounder, mac=mac, timestamp=timestamp)
        decoded = FBSHeader.decode(header.encode(suite), suite)
        assert decoded == header
