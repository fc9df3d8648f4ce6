"""A protected datagram channel: FBS endpoint x transport substrate.

:class:`SecureChannel` is the glue the tentpole exists for -- it binds
one :class:`~repro.core.protocol.FBSEndpoint` to one
:class:`~repro.transport.base.Transport` and keeps the two honest about
their division of labour:

* the *endpoint* owns security: protect on send, unprotect on receive,
  the accept/reject ledger with its mutually exclusive reasons;
* the *transport* owns the substrate: datagram I/O, timeouts, the
  clock, loss.

Because the endpoint was built with ``now=transport.now``, swapping the
substrate swaps the protocol's entire notion of time with it -- FBS
timestamps, freshness windows, and cache aging all follow.

**First contact over a lossy link.**  FBS keying is zero-message: the
first protected datagram of a flow carries everything the receiver
needs.  That means first contact has no handshake to lean on -- if the
first datagram is lost, *nothing* tells the sender except silence.
:meth:`SecureChannel.request` implements the standard remedy: resend
under a jittered exponential backoff (:class:`RetryPolicy`) until a
reply arrives or the attempt budget runs out.  Every retransmission is
re-protected (fresh timestamp, same flow), so a straggler duplicate
arriving late is rejected by the receiver's replay guard rather than
double-delivered.  Backoff sleeps go through ``transport.sleep``, so
the identical retry logic runs over simulated and real time, and the
jitter comes from a seeded :class:`random.Random` so simulated runs
stay reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.core.protocol import FBSEndpoint
from repro.obs.events import REJECTION_REASONS
from repro.transport.base import Transport

__all__ = ["RetryPolicy", "SecureChannel", "channel_pair"]


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for the first-contact path.

    Attempt ``i`` (0-based) waits ``min(initial * 2**i, cap)`` seconds,
    then scales that wait by a uniform factor in ``[1 - jitter, 1 +
    jitter]`` so synchronized senders do not retry in lockstep.  The
    jittered wait is clamped back to ``cap``: the cap is a ceiling on
    any single backoff, jitter included.
    """

    #: Backoff before the first retransmission, seconds.
    initial: float = 0.05
    #: Ceiling on any single backoff, seconds.
    cap: float = 1.0
    #: Jitter fraction; 0 disables jitter entirely.
    jitter: float = 0.5
    #: Total send attempts (the original send counts as one).
    attempts: int = 8

    def backoff(self, attempt: int, rng: random.Random) -> float:
        base = min(self.initial * (2.0 ** attempt), self.cap)
        if self.jitter <= 0:
            return base
        jittered = base * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return min(jittered, self.cap)


class SecureChannel:
    """One end of a protected conversation over a transport."""

    def __init__(
        self,
        endpoint: FBSEndpoint,
        transport: Transport,
        peer: Principal,
        secret: bool = False,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.endpoint = endpoint
        self.transport = transport
        self.peer = peer
        self.secret = secret
        self.retry = retry or RetryPolicy()
        self._rng = random.Random(seed)
        #: Channel-level accept/reject ledger -- the cross-substrate
        #: comparison surface (acceptance tests assert netsim == UDP).
        self.ledger: Dict[str, object] = {
            "sent": 0,
            "accepted": 0,
            "rejected": {reason: 0 for reason in REJECTION_REASONS},
        }

    # -- datagram path ---------------------------------------------------------

    async def send(self, body: bytes) -> None:
        """Protect one datagram and hand it to the substrate."""
        wire = self.endpoint.protect(body, self.peer, secret=self.secret)
        await self.transport.send(wire)
        self.ledger["sent"] += 1

    async def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Receive and unprotect one datagram.

        Returns the plaintext body, or ``None`` when nothing arrived
        within ``timeout`` *or* what arrived was rejected -- over an
        unreliable substrate both are the same outcome to the caller,
        and the ledger tells them apart.
        """
        wire = await self.transport.recv(timeout)
        if wire is None:
            return None
        result = self.endpoint.unprotect_batch((wire,), self.peer, self.secret)
        reason = result.reasons[0]
        if reason is not None:
            self.ledger["rejected"][reason] += 1
            return None
        self.ledger["accepted"] += 1
        return result.bodies[0]

    async def request(
        self,
        body: bytes,
        timeout: float = 0.25,
        retry: Optional[RetryPolicy] = None,
    ) -> Optional[bytes]:
        """Send ``body`` and wait for one reply, retrying on silence.

        This is the first-contact pattern: with zero-message keying a
        lost opening datagram produces no error signal, so each attempt
        re-protects the body (fresh timestamp) and resends after a
        jittered backoff.  Returns the first accepted reply, or ``None``
        once the attempt budget is spent.

        Within one attempt the *whole* timeout window is drained: a
        rejected arrival (a duplicate straggler, a corrupted datagram)
        returns early from :meth:`recv` but is not silence -- the
        genuine reply may still be in flight, so the attempt keeps
        listening for the remainder of its window instead of burning
        the attempt and resending immediately.
        """
        policy = retry or self.retry
        now = self.transport.now
        for attempt in range(max(1, policy.attempts)):
            if attempt:
                await self.transport.sleep(policy.backoff(attempt - 1, self._rng))
            await self.send(body)
            deadline = now() + timeout
            remaining = timeout
            while True:
                reply = await self.recv(remaining)
                if reply is not None:
                    return reply
                remaining = deadline - now()
                if remaining <= 0:
                    break
        return None

    async def close(self) -> None:
        await self.transport.close()

    # -- reporting -------------------------------------------------------------

    def ledger_dict(self) -> Dict[str, object]:
        """A deep copy of the ledger, safe to serialize (its bytes are
        checked by ``tests/test_report_determinism.py``)."""
        rejected = dict(self.ledger["rejected"])
        return {
            "sent": self.ledger["sent"],
            "accepted": self.ledger["accepted"],
            "rejected": rejected,
            "transport": self.transport.stats.to_dict(),
        }


def channel_pair(
    transport_a: Transport,
    transport_b: Transport,
    seed: int = 0,
    config: Optional[FBSConfig] = None,
    secret: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[SecureChannel, SecureChannel]:
    """Enroll two principals in one domain and wire them up.

    The endpoints take their clocks from their transports, so the pair
    works identically over netsim adapters (simulated time) and UDP
    transports (monotonic time) -- that symmetry is what the
    netsim-vs-UDP differential tests exercise.
    """
    domain = FBSDomain(seed=seed, config=config)
    p_a = Principal.from_name(f"transport-a-{seed}")
    p_b = Principal.from_name(f"transport-b-{seed}")
    ep_a = domain.make_endpoint(p_a, now=transport_a.now, sfl_seed=seed * 2 + 1)
    ep_b = domain.make_endpoint(p_b, now=transport_b.now, sfl_seed=seed * 2 + 2)
    ch_a = SecureChannel(
        ep_a, transport_a, peer=p_b, secret=secret, retry=retry, seed=seed * 2 + 1
    )
    ch_b = SecureChannel(
        ep_b, transport_b, peer=p_a, secret=secret, retry=retry, seed=seed * 2 + 2
    )
    return ch_a, ch_b
