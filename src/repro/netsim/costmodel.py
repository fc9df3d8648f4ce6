"""Calibrated CPU cost model standing in for the Pentium 133 testbed.

The paper's throughput numbers (Figure 8) come from real hardware we do
not have; per the reproduction's substitution rule we replace the
hardware with an explicit cost model.  Calibration anchors, all published
in the paper (Section 7.2/7.3):

* CryptoLib DES in CBC mode: **549 kB/s** on a Pentium 133 -> 1.821 us/B.
* CryptoLib MD5: **7060 kB/s** -> 0.1416 us/B.
* GENERIC (plain 4.4BSD IP) ttcp throughput: ~**7700 kb/s** on dedicated
  10 Mb/s Ethernet -> per-packet protocol cost ~1520 us at 1460-byte
  payloads, i.e. a fixed per-packet cost plus a per-byte copy/checksum
  cost.
* FBS DES+MD5 ttcp throughput: ~**3400 kb/s**.  Back-solving shows this
  is only achievable if the crypto pass is *integrated* with the other
  data-touching passes (copy, checksum) -- exactly the single-pass
  combining the paper prescribes in Section 5.3 ("An efficient
  implementation should try to combine all such data touching operation
  into a single pass").  The model therefore has an ``integrated_crypto``
  switch: when on, the per-byte copy/checksum cost is largely absorbed
  into the crypto pass; when off, passes are separate and throughput
  drops further.  The ablation bench quantifies the difference.

All costs are in seconds; all sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["CostModel", "PENTIUM_133", "FREE_CPU"]


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU costs for a simulated host.

    The defaults are the Pentium-133 calibration; tests mostly use
    :data:`FREE_CPU` (all-zero costs) where timing is irrelevant.
    """

    #: Fixed per-packet protocol cost (syscall, IP+UDP processing, driver).
    per_packet: float = 280e-6
    #: Per-byte cost of the non-crypto data-touching passes
    #: (user/kernel copy + checksum).
    per_byte_touch: float = 0.82e-6
    #: DES-CBC per-byte cost (549 kB/s on the P133).
    per_byte_des: float = 1.0 / 549_000
    #: MD5 per-byte cost (7060 kB/s on the P133).
    per_byte_md5: float = 1.0 / 7_060_000
    #: Residual per-byte touch cost that remains even when the crypto
    #: pass is integrated with copy/checksum (cache effects, loop overhead).
    per_byte_touch_residual: float = 0.17e-6
    #: Fixed FBS per-packet overhead: FAM/TFKC lookup, header insertion,
    #: confounder + timestamp generation (cache-hit path).
    fbs_per_packet: float = 65e-6
    #: Cost of one modular exponentiation (pair-based master key); the
    #: paper calls this "fairly expensive".  ~60 ms for a 1024-bit
    #: exponentiation on a P133 -- a full-length exponent, as in the
    #: paper's era.  Kept when :meth:`DHPrivateKey.generate` went to
    #: 256-bit private values (a quarter of the work in real time), so
    #: Figure 8, the ablations and the security matrix do not move
    #: (EXPERIMENTS.md "Known deviations" 5).
    modexp: float = 60e-3
    #: Cost of one flow-key derivation (one MD5 over a small buffer).
    flow_key_derivation: float = 30e-6
    #: Cost of a kernel/user Upcall round trip to the master key daemon.
    upcall: float = 500e-6
    #: Round-trip time to fetch a public-value certificate from a
    #: certificate authority on the network (PVC miss; "extremely
    #: expensive ... at the minimum a round trip communication delay").
    certificate_fetch_rtt: float = 20e-3
    #: Whether the crypto pass is folded into the copy/checksum pass
    #: (Section 5.3's single-pass optimization).
    integrated_crypto: bool = True
    #: Fixed per-packet cost on the *receive* path, when it differs from
    #: the send path (interrupt handling vs syscall entry).  ``None``
    #: keeps the calibrated symmetric model: receive == send.
    per_packet_receive: Optional[float] = None

    def generic_send(self, payload_bytes: int) -> float:
        """CPU time to send one plain (GENERIC) datagram."""
        return self.per_packet + self.per_byte_touch * payload_bytes

    def generic_receive(self, payload_bytes: int) -> float:
        """CPU time to receive one plain datagram.

        Symmetric with :meth:`generic_send` unless ``per_packet_receive``
        overrides the fixed cost -- receive-side consumers (the gateway
        decapsulation path, ``frame_arrived``) must charge through this
        method, never through ``generic_send``, so an asymmetric model
        lands on the right side.
        """
        per_packet = (
            self.per_packet
            if self.per_packet_receive is None
            else self.per_packet_receive
        )
        return per_packet + self.per_byte_touch * payload_bytes

    def fbs_nop(self, payload_bytes: int) -> float:
        """CPU time for FBS processing with nullified crypto."""
        return self.generic_send(payload_bytes) + self.fbs_per_packet

    def fbs_crypto(
        self, payload_bytes: int, encrypt: bool = True, mac: bool = True
    ) -> float:
        """CPU time for FBS processing with real crypto (cache-hit path)."""
        crypto_per_byte = 0.0
        if encrypt:
            crypto_per_byte += self.per_byte_des
        if mac:
            crypto_per_byte += self.per_byte_md5
        if crypto_per_byte and self.integrated_crypto:
            # One fused data-touching pass: bounded below by what the
            # plain copy/checksum pass already cost.
            per_byte = max(
                self.per_byte_touch, crypto_per_byte + self.per_byte_touch_residual
            )
        else:
            per_byte = crypto_per_byte + self.per_byte_touch
        return (
            self.per_packet
            + self.fbs_per_packet
            + per_byte * payload_bytes
        )

    def crypto_extra(
        self,
        payload_bytes: int,
        encrypt: bool = True,
        mac: bool = True,
        receive: bool = False,
    ) -> float:
        """CPU time of a crypto pass *beyond* the generic path.

        The host stack already charged the plain datagram --
        :meth:`generic_send` on output, :meth:`generic_receive` in
        ``frame_arrived`` -- so every security module charges only the
        difference, against the baseline of the side it runs on
        (``fbs_crypto`` prices both directions identically).
        """
        if receive:
            baseline = self.generic_receive(payload_bytes)
        else:
            baseline = self.generic_send(payload_bytes)
        return max(0.0, self.fbs_crypto(payload_bytes, encrypt, mac) - baseline)

    def des_cbc(self, nbytes: int) -> float:
        """CPU time to DES-CBC ``nbytes``."""
        return self.per_byte_des * nbytes

    def md5(self, nbytes: int) -> float:
        """CPU time to MD5 ``nbytes``."""
        return self.per_byte_md5 * nbytes

    def with_(self, **overrides) -> "CostModel":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)


#: The calibrated Pentium 133 model used by the Figure 8 bench.
PENTIUM_133 = CostModel()

#: A zero-cost model for functional tests where timing is irrelevant.
FREE_CPU = CostModel(
    per_packet=0.0,
    per_byte_touch=0.0,
    per_byte_des=0.0,
    per_byte_md5=0.0,
    per_byte_touch_residual=0.0,
    fbs_per_packet=0.0,
    modexp=0.0,
    flow_key_derivation=0.0,
    upcall=0.0,
    certificate_fetch_rtt=0.0,
)
