"""Netsim-vs-UDP differential for the retry path under seeded loss.

The transport tentpole's promise is interface symmetry: the same driver
coroutine, the same channels, the same retry policy produce the same
*protocol-visible* outcome over simulated and real substrates.  The
existing differentials cover the lossless echo; this one covers the
interesting case -- first contact under loss plus a duplicated datagram
-- and asserts the :class:`SecureChannel` ledgers (including per-reason
rejection counts) come out byte-identical across substrates.

Loss is scripted, not sampled per-substrate: a seeded RNG precomputes
one drop schedule over send indices, and the same schedule is replayed
against both substrates by a fault-injection wrapper.  The duplicate
lands on send 0 -- the zero-message keying datagram itself -- so its
twin exercises the replay guard on the very first flow datagram.
"""

import asyncio
import random
from typing import List, Optional

from repro.core.config import FBSConfig
from repro.transport import RetryPolicy
from repro.transport.base import Transport
from repro.transport.channel import SecureChannel
from repro.transport.runner import build_netsim_channels, build_udp_channels

POLICY = RetryPolicy(initial=0.01, cap=0.02, jitter=0.0, attempts=4)
EXCHANGES = 6
TIMEOUT = 0.1

#: One seeded drop schedule, replayed identically over both substrates.
#: With seed 0xFB5 this drops sends {3, 4, 5, 8, 9, 11}: exchange 3
#: survives only on its final attempt, so the budget edge is exercised.
_LOSS_RNG = random.Random(0xFB5)
DROPS = frozenset(i for i in range(12) if _LOSS_RNG.random() < 0.3)
#: The first undropped send carries the duplicate -- here send 0, the
#: opening keying datagram.
DUPLICATE = next(i for i in range(12) if i not in DROPS)


class ScriptedFaults(Transport):
    """Replay a precomputed loss + duplication schedule over any substrate."""

    name = "scripted-faults"

    def __init__(self, inner: Transport, drops, duplicate: int) -> None:
        super().__init__()
        self.inner = inner
        self.drops = drops
        self.duplicate = duplicate
        self.sends = 0
        self.dropped = 0

    def now(self) -> float:
        return self.inner.now()

    async def send(self, payload: bytes) -> None:
        index = self.sends
        self.sends += 1
        self.stats.datagrams_sent += 1
        if index in self.drops:
            self.dropped += 1
            return
        await self.inner.send(payload)
        if index == self.duplicate:
            await self.inner.send(payload)

    async def recv(self, timeout: Optional[float] = None) -> Optional[bytes]:
        return await self.inner.recv(timeout)

    async def close(self) -> None:
        await self.inner.close()

    async def sleep(self, seconds: float) -> None:
        await self.inner.sleep(seconds)

    def drain(self) -> List[bytes]:
        return self.inner.drain()


async def _drive(client: SecureChannel, server: SecureChannel) -> int:
    """The interleaved retry driver, substrate-agnostic by construction."""
    rng = random.Random(7)
    echoed = 0
    for i in range(EXCHANGES):
        payload = b"differential %03d" % i
        for attempt in range(POLICY.attempts):
            if attempt:
                await client.transport.sleep(POLICY.backoff(attempt - 1, rng))
            await client.send(payload)
            request = await server.recv(TIMEOUT)
            if request is not None:
                await server.send(request)
                # A duplicate rides right behind its twin: drain it now
                # so it cannot shadow the next exchange's datagram.
                await server.recv(0.02)
            reply = await client.recv(TIMEOUT)
            if reply == payload:
                echoed += 1
                break
    return echoed


async def _run(substrate: str):
    config = FBSConfig(replay_guard_size=64)
    if substrate == "netsim":
        client, server = build_netsim_channels(
            seed=17, config=config, retry=POLICY
        )
    else:
        client, server = await build_udp_channels(
            seed=17, config=config, retry=POLICY
        )
    faults = ScriptedFaults(client.transport, DROPS, DUPLICATE)
    lossy_client = SecureChannel(
        client.endpoint, faults, peer=client.peer, retry=POLICY, seed=17
    )
    try:
        echoed = await _drive(lossy_client, server)
    finally:
        await lossy_client.close()
        await server.close()
    return echoed, _protocol_ledger(lossy_client), _protocol_ledger(server), faults


def _protocol_ledger(channel: SecureChannel) -> dict:
    """The ledger without its transport counters, which differ by substrate."""
    ledger = channel.ledger_dict()
    del ledger["transport"]
    return ledger


class TestRetryDifferential:
    def test_ledgers_identical_across_substrates(self):
        n_echoed, n_client, n_server, n_faults = asyncio.run(_run("netsim"))
        u_echoed, u_client, u_server, u_faults = asyncio.run(_run("udp"))

        # The schedule genuinely fired on both substrates.
        assert n_faults.dropped == u_faults.dropped == 5
        assert n_faults.sends == u_faults.sends == n_client["sent"]
        assert n_echoed == u_echoed == EXCHANGES

        # The comparison surface: full ledgers, per-reason counts and all.
        assert n_client == u_client
        assert n_server == u_server

        # And the ledgers show the scripted story, not a degenerate run:
        # retries happened (more sends than exchanges), the duplicated
        # first-contact datagram was refused by the replay guard, and no
        # other rejection reason fired.
        assert n_client["sent"] == 11
        assert n_server["accepted"] == EXCHANGES
        assert n_server["rejected"]["duplicate"] == 1
        assert all(
            count == 0
            for reason, count in n_server["rejected"].items()
            if reason != "duplicate"
        )
        assert all(count == 0 for count in n_client["rejected"].values())
