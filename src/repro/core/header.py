"""The security flow header (Figure 2).

Field order follows Figure 2: **sfl | confounder | MAC | timestamp**.
Sizes follow the paper's IP mapping (Section 7.2): sfl 64 bits,
confounder 32 bits, MAC 128 bits, timestamp 32 bits -- 32 bytes total.

The MAC field width is configurable (truncated MACs and 160-bit SHS MACs
change it), so the codec is parameterized by the
:class:`~repro.core.config.AlgorithmSuite`.  An optional 2-byte
algorithm-identification prefix implements the field the paper says a
general header "should also include".

Section 7.2 also specifies how the 32-bit confounder becomes a DES IV:
"the confounder is first duplicated to provide a 64-bit quantity" --
:meth:`FBSHeader.iv`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.config import AlgorithmSuite
from repro.core.errors import HeaderFormatError

__all__ = ["FBSHeader", "FBS_HEADER_LEN", "header_length"]

#: Header length with the default suite (128-bit MAC, no algorithm id).
FBS_HEADER_LEN = 8 + 4 + 16 + 4

# Precompiled wire codecs: the format strings are parsed once at import
# instead of once per datagram.  Their widths are pinned on real bytes:
# tests/core/test_header.py spells every field with ``to_bytes`` and
# tests/core/wire_digests.txt holds the resulting wire.
_ALGO_ID = struct.Struct(">BB")
_SFL_CONFOUNDER = struct.Struct(">QI")
_CONFOUNDER_TIMESTAMP = struct.Struct(">II")
_U32 = struct.Struct(">I")


def header_length(suite: AlgorithmSuite, carry_algorithm_id: bool = False) -> int:
    """Wire length of the security flow header under ``suite``."""
    return 8 + 4 + suite.mac_bytes + 4 + (2 if carry_algorithm_id else 0)


@dataclass
class FBSHeader:
    """One datagram's security flow header: (sfl, c, m, t) of Figure 4."""

    sfl: int
    confounder: int
    mac: bytes
    timestamp: int

    def __post_init__(self) -> None:
        if not 0 <= self.sfl < (1 << 64):
            raise ValueError(f"sfl out of 64-bit range: {self.sfl}")
        if not 0 <= self.confounder < (1 << 32):
            raise ValueError(f"confounder out of 32-bit range: {self.confounder}")
        if not 0 <= self.timestamp < (1 << 32):
            raise ValueError(f"timestamp out of 32-bit range: {self.timestamp}")

    def encode(self, suite: AlgorithmSuite, carry_algorithm_id: bool = False) -> bytes:
        """Serialize in Figure 2 field order."""
        if len(self.mac) != suite.mac_bytes:
            raise ValueError(
                f"MAC is {len(self.mac)} bytes but suite carries {suite.mac_bytes}"
            )
        prefix = _ALGO_ID.pack(suite.suite_id, 0) if carry_algorithm_id else b""
        return (
            prefix
            + _SFL_CONFOUNDER.pack(self.sfl, self.confounder)
            + self.mac
            + _U32.pack(self.timestamp)
        )

    @classmethod
    def decode(
        cls,
        data: bytes,
        suite: AlgorithmSuite,
        carry_algorithm_id: bool = False,
    ) -> "FBSHeader":
        """Parse a header; raises :class:`HeaderFormatError` on problems."""
        need = header_length(suite, carry_algorithm_id)
        if len(data) < need:
            raise HeaderFormatError(
                f"datagram too short for FBS header: {len(data)} < {need}"
            )
        offset = 0
        if carry_algorithm_id:
            suite_id, _reserved = _ALGO_ID.unpack_from(data, 0)
            if suite_id != suite.suite_id:
                raise HeaderFormatError(
                    f"algorithm suite mismatch: got {suite_id}, "
                    f"expected {suite.suite_id}"
                )
            offset = 2
        sfl, confounder = _SFL_CONFOUNDER.unpack_from(data, offset)
        offset += 12
        mac = data[offset : offset + suite.mac_bytes]
        offset += suite.mac_bytes
        (timestamp,) = _U32.unpack_from(data, offset)
        return cls(sfl=sfl, confounder=confounder, mac=mac, timestamp=timestamp)

    def iv(self) -> bytes:
        """The 64-bit DES IV: the 32-bit confounder duplicated."""
        four = _U32.pack(self.confounder)
        return four + four

    def mac_input(self, body: bytes) -> bytes:
        """``confounder | timestamp | body`` -- the MAC'ed bytes of S6/R7,
        assembled with a single pack on the datapath."""
        return _CONFOUNDER_TIMESTAMP.pack(self.confounder, self.timestamp) + body
