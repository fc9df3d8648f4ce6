"""The one ``ip_output``/``ip_input`` hook body the Section 2 schemes share.

Sections 2 and 7.4 compare KDC and Photuris session keying, host-pair
keying (with or without per-datagram keys) and SKIP on one axis: where
the traffic key comes from and what announces it on the wire.  The rest
of an IP security module -- the secure flow bypass, sealing, opening,
charging the CPU, counting the outcome -- is written here once.

Wire format: ``prefix | IV (8) | [MAC (16)] | DES-CBC(payload)``, the
keyed-MD5 MAC over ``IV | ciphertext``.  A scheme is the width of its
``prefix`` (nothing, a wrapped per-datagram key, a ticket, an SPI) and
two keying rules, ``send_keys`` and ``receive_keys``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.errors import FBSError
from repro.core.ip_mapping import is_bypass
from repro.crypto.des import BLOCK_SIZE, DES
from repro.crypto.mac import constant_time_equal, keyed_md5
from repro.crypto.modes import decrypt_cbc, encrypt_cbc
from repro.crypto.random import LinearCongruential
from repro.netsim.host import Host, SecurityModule
from repro.netsim.ipv4 import IPv4Packet

__all__ = ["SealedDatagramModule", "Keys"]

_IV_LEN = 8
_MAC_LEN = 16

#: ``(cipher_key, mac_key)``: plain host-pair keying MACs under the whole
#: master key but feeds DES its first 8 bytes; the rest use one key twice.
Keys = Tuple[bytes, bytes]


class SealedDatagramModule(SecurityModule):
    """bypass -> key -> seal -> charge -> count, and its inverse.

    A scheme passes its ``prefix_len`` (bytes it puts in front of the
    IV), the seed of its IV generator, and whether datagrams carry the
    MAC; certificate-directory traffic is exempt (``is_bypass``).
    """

    def __init__(
        self, host: Host, prefix_len: int, iv_seed: int, include_mac: bool = True
    ) -> None:
        self.host = host
        self.include_mac = include_mac
        self.prefix_len = prefix_len
        #: Where ciphertext starts in a sealed datagram.
        self.body_offset = prefix_len + _IV_LEN + (_MAC_LEN if include_mac else 0)
        self._iv_rng = LinearCongruential(iv_seed)
        self.outbound_protected = 0
        self.outbound_dropped = 0
        self.inbound_accepted = 0
        self.inbound_rejected = 0

    # -- layout ---------------------------------------------------------------

    def header_overhead(self) -> int:
        return self.body_offset + BLOCK_SIZE  # + worst-case CBC padding

    def split(self, data: bytes) -> Tuple[bytes, bytes, bytes, bytes]:
        """``(prefix, iv, mac, body)`` of a sealed datagram (``mac`` is
        empty without ``include_mac``)."""
        iv_end = self.prefix_len + _IV_LEN
        return (
            data[: self.prefix_len],
            data[self.prefix_len : iv_end],
            data[iv_end : self.body_offset],
            data[self.body_offset :],
        )

    # -- the keying rules a scheme supplies -------------------------------------

    def send_keys(self, packet: IPv4Packet) -> Optional[Tuple[bytes, Keys]]:
        """``(prefix, keys)`` for a datagram leaving this host, or None
        when the scheme cannot key it (the datagram is dropped)."""
        raise NotImplementedError

    def receive_keys(self, packet: IPv4Packet, prefix: bytes) -> Optional[Keys]:
        """The keys ``prefix`` announces for an arriving datagram, or
        None when the scheme refuses it."""
        raise NotImplementedError

    # -- the IP hooks -----------------------------------------------------------

    def outbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        if is_bypass(packet):
            return packet
        keyed = self.send_keys(packet)
        if keyed is None:
            self.outbound_dropped += 1
            return None
        prefix, (cipher_key, mac_key) = keyed
        iv = self._iv_rng.next_bytes(_IV_LEN)
        body = encrypt_cbc(DES(cipher_key), iv, packet.payload)
        mac = keyed_md5(mac_key, iv + body) if self.include_mac else b""
        extra = self.host.cost_model.crypto_extra
        self.host.charge_cpu(extra(len(packet.payload), mac=self.include_mac))
        packet.payload = prefix + iv + mac + body
        self.outbound_protected += 1
        return packet

    def inbound(self, packet: IPv4Packet) -> Optional[IPv4Packet]:
        if is_bypass(packet):
            return packet
        plaintext = self._open(packet)
        if plaintext is None:
            self.inbound_rejected += 1
            return None
        extra = self.host.cost_model.crypto_extra
        self.host.charge_cpu(extra(len(plaintext), mac=self.include_mac, receive=True))
        packet.payload = plaintext
        self.inbound_accepted += 1
        return packet

    # -- internals ------------------------------------------------------------------

    def _open(self, packet: IPv4Packet) -> Optional[bytes]:
        """The plaintext, or None for whatever reason it is refused:
        short, unkeyable (a sender with no certificate included), MAC
        mismatch, bad padding."""
        data = packet.payload
        if len(data) < self.body_offset:
            return None
        prefix, iv, mac, body = self.split(data)
        try:
            keys = self.receive_keys(packet, prefix)
        except FBSError:
            return None
        if keys is None:
            return None
        cipher_key, mac_key = keys
        if self.include_mac and not constant_time_equal(
            keyed_md5(mac_key, iv + body), mac
        ):
            return None
        try:
            return decrypt_cbc(DES(cipher_key), iv, body)
        except ValueError:
            return None
