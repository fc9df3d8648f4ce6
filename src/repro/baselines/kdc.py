"""KDC/ticket session keying (Kerberos / Sun RPC / DCE flavour).

Section 2.1: "In a KDC-based approach, before a source sends a datagram,
it contacts the KDC to request a session key and an authentication
ticket.  The ticket, encrypted with the destination's secret key, allows
the destination (and only the destination) to authenticate and decrypt
transmissions from the source."

Costs and semantics reproduced:

* The first datagram to a new peer triggers a KDC exchange -- **extra
  messages** and a round-trip delay, violating datagram semantics
  (counted in ``setup_messages`` / ``setup_delay_seconds``).
* Both ends hold **hard state**: the source caches the (key, ticket)
  association; the destination caches the session key after unwrapping
  the ticket.  Unlike FBS soft state, losing it breaks traffic until a
  new exchange runs (tests demonstrate this asymmetry).

Wire format per datagram:
``ticket (24 bytes) | IV (8) | MAC (16) | E_session(payload)`` --
carrying the ticket in every datagram, as Kerberos-over-UDP
applications did, lets the receiver rebuild state but inflates every
packet.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.sealed import Keys, SealedDatagramModule
from repro.crypto.des import DES
from repro.crypto.modes import decrypt_cbc, encrypt_cbc
from repro.crypto.random import CounterRandom
from repro.netsim.addresses import IPAddress
from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet

__all__ = ["KeyDistributionCenter", "KdcSessionKeying"]

_TICKET_LEN = 24  # E_Kd(session key 8 | source addr 4 | expiry 4) padded
#: Round trip of the request/reply exchange with the KDC, seconds.
KDC_RTT = 10e-3
#: How long an issued ticket stays valid, seconds.
TICKET_LIFETIME = 8 * 3600.0


class KeyDistributionCenter:
    """The trusted third party: shares a long-term secret with each host."""

    def __init__(self, seed: int = 0) -> None:
        self._secrets: Dict[int, bytes] = {}
        self._keygen = CounterRandom(b"kdc" + seed.to_bytes(4, "big"))
        self.tickets_issued = 0

    def register(self, address: IPAddress) -> bytes:
        """Provision a host; returns its long-term KDC secret."""
        secret = self._keygen.next_bytes(8)
        self._secrets[int(address)] = secret
        return secret

    def issue(
        self, source: IPAddress, destination: IPAddress, expiry: int
    ) -> Optional[tuple]:
        """Issue (session_key, ticket) for source -> destination."""
        dest_secret = self._secrets.get(int(destination))
        if dest_secret is None or int(source) not in self._secrets:
            return None
        session_key = self._keygen.next_bytes(8)
        self.tickets_issued += 1
        plaintext = session_key + source.to_bytes() + struct.pack(">I", expiry)
        ticket = encrypt_cbc(DES(dest_secret), b"\x00" * 8, plaintext)
        if len(ticket) != _TICKET_LEN:
            raise ValueError(
                f"ticket encrypted to {len(ticket)} bytes, expected "
                f"{_TICKET_LEN}; the wire format pads to a fixed width"
            )
        return session_key, ticket


@dataclass
class _Association:
    """Hard state for one peer."""

    session_key: bytes
    ticket: bytes


class KdcSessionKeying(SealedDatagramModule):
    """Session keying through a KDC, installed at the IP layer."""

    name = "kdc-session"

    def __init__(self, host: Host, kdc: KeyDistributionCenter, seed: int = 17) -> None:
        super().__init__(host, _TICKET_LEN, seed)
        self.kdc = kdc
        self.secret = kdc.register(host.address)
        # Hard state, both directions.
        self._send_assocs: Dict[int, _Association] = {}
        self._recv_keys: Dict[bytes, bytes] = {}  # ticket -> session key
        # Metrics.
        self.setup_messages = 0
        self.setup_delay_seconds = 0.0

    def drop_hard_state(self) -> None:
        """Simulate state loss (crash/reboot).

        Unlike FBS cache flushes, recovery requires a fresh KDC exchange
        on the send side, and inbound datagrams re-prime receive state
        from the carried ticket.
        """
        self._send_assocs.clear()
        self._recv_keys.clear()

    # -- the keying rules ----------------------------------------------------------

    def send_keys(self, packet: IPv4Packet) -> Optional[Tuple[bytes, Keys]]:
        dst = packet.header.dst
        assoc = self._send_assocs.get(int(dst))
        if assoc is None:
            issued = self.kdc.issue(
                packet.header.src,
                dst,
                expiry=int(self.host.sim.now + TICKET_LIFETIME),
            )
            if issued is None:
                return None
            # The KDC exchange: request + reply, one round trip.
            self.setup_messages += 2
            self.setup_delay_seconds += KDC_RTT
            self.host.charge_cpu(KDC_RTT)
            assoc = _Association(session_key=issued[0], ticket=issued[1])
            self._send_assocs[int(dst)] = assoc
        return assoc.ticket, (assoc.session_key, assoc.session_key)

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> Optional[Keys]:
        session_key = self._recv_keys.get(prefix)
        if session_key is None:
            session_key = self._unwrap_ticket(prefix, packet.header.src)
            if session_key is None:
                return None
            self._recv_keys[prefix] = session_key
        return session_key, session_key

    # -- internals -----------------------------------------------------------------

    def _unwrap_ticket(self, ticket: bytes, claimed_src: IPAddress) -> Optional[bytes]:
        try:
            plaintext = decrypt_cbc(DES(self.secret), b"\x00" * 8, ticket)
        except ValueError:
            return None
        if len(plaintext) != 16:
            return None
        session_key = plaintext[:8]
        source = IPAddress.from_bytes(plaintext[8:12])
        (expiry,) = struct.unpack(">I", plaintext[12:16])
        if source != claimed_src:
            return None
        if self.host.sim.now > expiry:
            return None
        return session_key
