"""FBSSend and FBSReceive, written once from the paper: the tests' oracle.

Figures 2-6 and Sections 5.2 and 7.2 say what a protected datagram *is*;
this module says it in two plain functions.  There is no cache, lane,
metric, tracer or flow association mechanism: every datagram derives
``K_{S,D} = g^{sd} mod p`` and ``K_f = MD5(sfl | K_{S,D} | S | D)``
from scratch, over ``hashlib.md5``, ``pow`` and the by-the-book DES of
``repro.crypto.des_reference``.

What the paper leaves to the sender or to enrolment is an input: the
opaque ``sfl`` and the random 32-bit confounder (the caller reads them
off the emitted header), and the group and the principals' wire ids and
Diffie-Hellman private values (:class:`Domain`).  Everything else is
stated here: the Figure 2 layout of the IP mapping (sfl 64 bits |
confounder 32 | MAC | timestamp 32, no algorithm id); keyed MD5 over
``K_f | c | t | body`` truncated to the suite's MAC width (S6/R7);
DES-CBC under ``K_f[:8]`` with the confounder doubled as the IV and a
PKCS#7-style pad (S8/R10); the minute timestamp since 1996 (S5) and
freshness at +-half a window plus the minute's 60 s of slack (R3); and
the reason order header -> stale_timestamp -> keying -> (decrypt) ->
mac -> duplicate.  Decryption precedes the MAC check: the inverse of the
send side, not Figure 4's literal R7-before-R10 (EXPERIMENTS.md "Known
deviations" 1).

The optional replay guard (not in the paper) is modelled as what it
promises: with capacity ``guard``, a datagram whose
``(sfl, confounder, MAC)`` is among the last ``guard`` accepted inside
the freshness span is a duplicate.  That memory is the caller's
``seen`` list: soft state, emptied when the receiver loses its own.
"""

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.des_reference import DES

#: Seconds from 1996-01-01 00:00 GMT, the timestamp's epoch (Section
#: 7.2), to 1997-09-14, where simulated time 0 sits.
EPOCH = (366 + 256) * 86400
BLOCK = 8


@dataclass(frozen=True)
class Domain:
    """What enrolment fixed: the group and each principal's private value."""

    p: int
    g: int
    private: Dict[bytes, int]  # wire id -> DH private value
    mac_bytes: int = 16
    half_window: float = 120.0
    guard: int = 0  # replay guard capacity; 0 is the paper's FBS

    @classmethod
    def enrolled(cls, domain, *principals) -> "Domain":
        """What an ``FBSDomain`` enrolled ``principals`` with."""
        config = domain.config
        private = {p.wire_id: domain.private_keys[p.name].private for p in principals}
        return cls(
            domain.group.p, domain.group.g, private, config.suite.mac_bytes,
            config.freshness_half_window, config.replay_guard_size,
        )  # fmt: skip


def flow_key(domain: Domain, sfl: int, source: bytes, dest: bytes) -> bytes:
    """Section 5.2: K_{S,D} = g^{sd} mod p, K_f = MD5(sfl | K_{S,D} | S | D)."""
    p = domain.p
    shared = pow(pow(domain.g, domain.private[source], p), domain.private[dest], p)
    master = shared.to_bytes((p.bit_length() + 7) // 8, "big")
    return hashlib.md5(struct.pack(">Q", sfl) + master + source + dest).digest()


def mac(domain: Domain, key: bytes, confounder: int, stamp: int, body: bytes) -> bytes:
    """S6/R7: keyed MD5 over K_f | c | t | body, truncated."""
    digest = hashlib.md5(key + struct.pack(">II", confounder, stamp) + body).digest()
    return digest[: domain.mac_bytes]


def cbc(key: bytes, confounder: int, data: bytes, decrypt: bool) -> bytes:
    """DES-CBC under K_f[:8] with IV c | c (Section 7.2)."""
    des = DES(key[:BLOCK])
    chain = struct.pack(">II", confounder, confounder)
    out = []
    for i in range(0, len(data), BLOCK):
        block = data[i : i + BLOCK]
        if decrypt:
            plain = des.decrypt_block(block)
            out.append(bytes(x ^ y for x, y in zip(plain, chain)))
            chain = block
        else:
            chain = des.encrypt_block(bytes(x ^ y for x, y in zip(block, chain)))
            out.append(chain)
    return b"".join(out)


def spec_send(
    domain: Domain, source: bytes, dest: bytes, body: bytes,
    sfl: int, confounder: int, now: float, secret: bool,
) -> bytes:  # fmt: skip
    """FBSSend (S1-S10): the wire bytes of ``body`` sent at ``now``."""
    key = flow_key(domain, sfl, source, dest)
    stamp = int((now + EPOCH) // 60)
    tag = mac(domain, key, confounder, stamp, body)
    if secret:
        pad = BLOCK - len(body) % BLOCK
        body = cbc(key, confounder, body + bytes([pad]) * pad, decrypt=False)
    return struct.pack(">QI", sfl, confounder) + tag + struct.pack(">I", stamp) + body


def spec_receive(
    domain: Domain, source: bytes, dest: bytes, wire: bytes, now: float,
    secret: bool, seen: List[Tuple[Tuple[int, int, bytes], float]],
) -> Tuple[Optional[bytes], Optional[str]]:  # fmt: skip
    """FBSReceive (R1-R12) at ``now``: ``(body, None)`` or ``(None, reason)``."""
    size = 12 + domain.mac_bytes + 4
    if len(wire) < size:
        return None, "header"
    sfl, confounder = struct.unpack_from(">QI", wire)
    tag = wire[12 : size - 4]
    (stamp,) = struct.unpack_from(">I", wire, size - 4)
    start = stamp * 60.0 - EPOCH
    if start + 60.0 < now - domain.half_window or start > now + domain.half_window:
        return None, "stale_timestamp"
    if source not in domain.private:
        return None, "keying"
    key = flow_key(domain, sfl, source, dest)
    body = wire[size:]
    if secret:
        if not body or len(body) % BLOCK:
            return None, "mac"
        body = cbc(key, confounder, body, decrypt=True)
        pad = body[-1]
        if not 1 <= pad <= BLOCK or body[-pad:] != bytes([pad]) * pad:
            return None, "mac"
        body = body[:-pad]
    if mac(domain, key, confounder, stamp, body) != tag:
        return None, "mac"
    if domain.guard:
        span = 2 * domain.half_window + 60.0
        recent = [k for k, at in seen[-domain.guard :] if at >= now - span]
        if (sfl, confounder, tag) in recent:
            return None, "duplicate"
        seen.append(((sfl, confounder, tag), now))
    return body, None
