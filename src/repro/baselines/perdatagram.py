"""Host-pair keying with per-datagram keys (Section 2.2's countermeasure).

"A simple countermeasure [to cut-and-paste] is to extend host-pair
keying with per-datagram keys.  Instead of using the master key to
directly encrypt data, the master key is used to encrypt a per-datagram
key, which is used to actually encrypt the data.  A subtle problem with
this is that the per-datagram keys should be cryptographically random
... Cryptographically secure random number generators such as the
quadratic residue generator can be a performance bottleneck."

Wire format: ``E_master(K_p) (8 bytes) | IV (8) | MAC (16) | E_{K_p}(payload)``
where ``K_p`` comes from a Blum-Blum-Shub generator.  The BBS cost is
charged per datagram (64 modular squarings for a 64-bit key), which is
exactly the bottleneck the paper warns about; the ablation bench
measures it against FBS's once-per-flow derivation.
"""

from __future__ import annotations

from typing import Tuple

from repro.baselines.sealed import Keys, SealedDatagramModule
from repro.core.keying import Principal
from repro.core.mkd import MasterKeyDaemon
from repro.crypto.des import DES
from repro.crypto.random import BlumBlumShub
from repro.crypto.secret import Secret
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet

__all__ = ["PerDatagramHostPair", "BBS_KEY_COST_SECONDS"]

_KEY_LEN = 8

#: Calibrated cost of drawing one 64-bit BBS key on the Pentium 133:
#: 64 modular squarings of a 512-bit modulus at ~45 us each.
BBS_KEY_COST_SECONDS = 64 * 45e-6
#: Size of the simulated generator's modulus.
BBS_BITS = 128


class PerDatagramHostPair(SealedDatagramModule):
    """Host-pair keying hardened with BBS per-datagram keys."""

    name = "host-pair-per-datagram"

    def __init__(self, host: Host, mkd: MasterKeyDaemon, seed: int = 7) -> None:
        super().__init__(host, _KEY_LEN, seed)
        self.mkd = mkd
        self._bbs = BlumBlumShub(seed=seed, bits=BBS_BITS)
        self.keys_generated = 0

    def _master_cipher(self, peer: Principal) -> DES:
        return DES(self.mkd.master_key(peer)[:8])

    def send_keys(self, packet: IPv4Packet) -> Tuple[bytes, Keys]:
        # Draw a cryptographically strong per-datagram key -- the
        # expensive step.
        datagram_key = self._bbs.next_bytes(_KEY_LEN)
        self.keys_generated += 1
        self.host.charge_cpu(BBS_KEY_COST_SECONDS)
        peer = Principal.from_ip(packet.header.dst)
        wrapped = self._master_cipher(peer).encrypt_block(datagram_key)
        key = Secret(datagram_key)
        return wrapped, (key, key)

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> Keys:
        peer = Principal.from_ip(packet.header.src)
        datagram_key = Secret(self._master_cipher(peer).decrypt_block(prefix))
        return datagram_key, datagram_key
