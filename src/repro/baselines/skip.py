"""SKIP-style zero-message host keying (Section 7.4's comparison point).

"SKIP also provides zero-message keying based on Diffie-Hellman.  The
key advantage of FBS is that it provides security based on the unit of
flows rather than hosts. ... FBS also provides better performance
because key generation need only be done on a per-flow basis rather
than a per-datagram basis."

Modelled after the SKIP draft (Aziz et al.):

* ``Kij`` -- the implicit DH pair master key (same substrate as FBS).
* ``Kijn = h(Kij | n)`` -- an hourly key (``n`` = hours since epoch),
  bounding how long any single traffic-wrapping key lives.
* ``Kp`` -- a random **per-datagram** packet key, transported in the
  header encrypted under ``Kijn``; the payload is encrypted and MAC'd
  under ``Kp``.

Wire format: ``n (4) | E_Kijn(Kp) (8) | IV (8) | MAC (16) | E_Kp(body)``.

The contrasts with FBS that the benches measure:

* key *generation* happens per datagram (FBS: per flow),
* compromise of ``Kijn`` exposes an hour of *all* host-pair traffic
  (FBS: one flow), and
* there is no flow separation at all -- every user and connection
  between two hosts shares fate.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from repro.baselines.sealed import Keys, SealedDatagramModule
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.crypto.des import DES
from repro.crypto.md5 import md5
from repro.crypto.random import CounterRandom
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet

__all__ = ["SkipHostKeying"]

_KP_LEN = 8
#: The scheme's prefix: ``n (4) | E_Kijn(Kp) (8)``.
_PREFIX = struct.Struct(">I8s")

#: Calibrated per-datagram packet-key generation cost (SKIP needs a
#: strong Kp each packet; cheaper than BBS-per-key since implementations
#: batched entropy, but still per-packet work).
PACKET_KEY_COST_SECONDS = 120e-6
#: Lifetime of one ``Kijn``, seconds: the hour of SKIP's ``n``.
KEY_INTERVAL = 3600.0


class SkipHostKeying(SealedDatagramModule):
    """SKIP at the IP layer, sharing the FBS certificate substrate."""

    name = "skip"

    def __init__(self, host: Host, mkd: MasterKeyDaemon, seed: int = 23) -> None:
        super().__init__(host, _PREFIX.size, seed)
        self.mkd = mkd
        self._kp_rng = CounterRandom(b"skip-kp" + seed.to_bytes(4, "big"))
        self._kijn_cache: Dict[tuple, bytes] = {}
        self.packet_keys_generated = 0

    # -- keying ---------------------------------------------------------------------

    def _interval_now(self) -> int:
        return int(self.host.sim.now // KEY_INTERVAL)

    def interval_key(self, peer: Principal, n: int) -> bytes:
        """Kijn = h(Kij | n): the hourly host-pair key."""
        cache_key = (peer.wire_id, n)
        cached = self._kijn_cache.get(cache_key)
        if cached is not None:
            return cached
        master = self.mkd.master_key(peer)
        kijn = md5(master + struct.pack(">I", n))[:8]
        self._kijn_cache[cache_key] = kijn
        return kijn

    @staticmethod
    def packet_key(kijn: bytes, prefix: bytes) -> bytes:
        """Kp as whoever holds ``kijn`` unwraps it from a datagram's
        prefix -- the receiver, or an attacker with a stolen hourly key."""
        _n, wrapped = _PREFIX.unpack(prefix)
        return DES(kijn).decrypt_block(wrapped)

    def send_keys(self, packet: IPv4Packet) -> Tuple[bytes, Keys]:
        n = self._interval_now()
        kijn = self.interval_key(Principal.from_ip(packet.header.dst), n)
        # Per-datagram packet key: the cost FBS's per-flow keying avoids.
        kp = self._kp_rng.next_bytes(_KP_LEN)
        self.packet_keys_generated += 1
        self.host.charge_cpu(PACKET_KEY_COST_SECONDS)
        return _PREFIX.pack(n, DES(kijn).encrypt_block(kp)), (kp, kp)

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> Optional[Keys]:
        n, _wrapped = _PREFIX.unpack(prefix)
        # Accept the current and adjacent intervals (clock skew).
        if abs(n - self._interval_now()) > 1:
            return None
        kijn = self.interval_key(Principal.from_ip(packet.header.src), n)
        kp = self.packet_key(kijn, prefix)
        return kp, kp
