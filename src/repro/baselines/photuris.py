"""Two-party session key exchange (Photuris / Oakley flavour).

Section 2.1: "In session-based keying without a third party, a dynamic
key exchange is performed between the source and destination principals.
This establishes a shared secret, which can be used to derive a session
key.  The session key is stored as part of the security association."

The exchange is modelled as the Photuris shape: a cookie round trip
(anti-clogging) followed by a Diffie-Hellman value exchange -- four
messages and two modular exponentiations per side before the first data
byte moves.  The resulting security association is **hard state** on
both ends, identified by an SPI carried in every datagram.

Peers rendezvous through a shared registry (the simulation stand-in for
the actual exchange messages); every cost the exchange would incur --
messages, round trips, modexps -- is charged and counted explicitly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.sealed import Keys, SealedDatagramModule
from repro.crypto.secret import Secret, derive_key
from repro.netsim.addresses import IPAddress
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet

__all__ = ["PhoturisSessionKeying"]

_SPI_LEN = 4
#: One network round trip between the peers, seconds.
RTT = 2e-3
#: Round trips the exchange costs (Photuris: cookie + value = 2).
EXCHANGE_RTTS = 2
#: One Diffie-Hellman modular exponentiation, seconds.
MODEXP_COST = 60e-3


@dataclass
class _SecurityAssociation:
    """Hard state for one direction of one peer pair."""

    spi: int
    session_key: Secret


class PhoturisSessionKeying(SealedDatagramModule):
    """Session keying via a two-party exchange, installed at IP.

    Parameters
    ----------
    registry:
        Shared ``{int(address): module}`` map through which the
        simulated exchange installs the peer's SA.
    """

    name = "photuris-session"

    def __init__(
        self,
        host: Host,
        registry: Dict[int, "PhoturisSessionKeying"],
        dh_private_seed: int = 5,
    ) -> None:
        super().__init__(host, _SPI_LEN, dh_private_seed * 31 + 7)
        self.registry = registry
        registry[int(host.address)] = self
        self._dh_seed = dh_private_seed
        self._next_spi = (dh_private_seed * 1000003) & 0x7FFFFFFF
        # Hard state.
        self._send_sas: Dict[int, _SecurityAssociation] = {}
        self._recv_sas: Dict[int, _SecurityAssociation] = {}  # by SPI
        # Metrics.
        self.setup_messages = 0
        self.setup_delay_seconds = 0.0
        self.exchanges = 0
        self.unknown_spi = 0

    def drop_hard_state(self) -> None:
        """Simulate a crash: all SAs gone; traffic blackholes until the
        initiator times out and re-exchanges (here: next send
        re-exchanges, but inbound datagrams with dead SPIs are lost)."""
        self._send_sas.clear()
        self._recv_sas.clear()

    # -- the exchange -------------------------------------------------------------

    def _establish(self, dst: IPAddress) -> Optional[_SecurityAssociation]:
        peer = self.registry.get(int(dst))
        if peer is None:
            return None
        # Cookie round trip + value exchange: messages and delay.
        messages = EXCHANGE_RTTS * 2
        delay = EXCHANGE_RTTS * RTT + 2 * MODEXP_COST
        self.setup_messages += messages
        peer.setup_messages += messages
        self.setup_delay_seconds += delay
        self.host.charge_cpu(delay)
        peer.host.charge_cpu(2 * MODEXP_COST)
        self.exchanges += 1
        # Both sides derive the same session key from the (simulated) DH
        # exchange; model it as a hash over the sorted endpoint pair and
        # per-pair salt.
        lo, hi = sorted((int(self.host.address), int(dst)))
        session_key = derive_key(
            b"photuris-dh", struct.pack(">IIII", lo, hi, self._dh_seed, peer._dh_seed)
        )[:8]
        spi = self._next_spi
        self._next_spi += 1
        sa = _SecurityAssociation(spi=spi, session_key=session_key)
        self._send_sas[int(dst)] = sa
        peer._recv_sas[spi] = sa
        return sa

    # -- the keying rules ---------------------------------------------------------------

    def send_keys(self, packet: IPv4Packet) -> Optional[Tuple[bytes, Keys]]:
        sa = self._send_sas.get(int(packet.header.dst))
        if sa is None:
            sa = self._establish(packet.header.dst)
            if sa is None:
                return None
        return struct.pack(">I", sa.spi), (sa.session_key, sa.session_key)

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> Optional[Keys]:
        (spi,) = struct.unpack(">I", prefix)
        sa = self._recv_sas.get(spi)
        if sa is None:
            # Hard-state failure mode: an unknown SPI is undecryptable.
            self.unknown_spi += 1
            return None
        return sa.session_key, sa.session_key
