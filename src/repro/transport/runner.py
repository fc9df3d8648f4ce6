"""The cross-substrate echo workload and its byte-stable report.

One driver coroutine, two substrates.  ``run_echo`` builds a connected
:class:`~repro.transport.channel.SecureChannel` pair over the requested
substrate and ping-pongs ``datagrams`` protected payloads through it:
client protects and sends, server unprotects and echoes, client
unprotects the echo.  The driving loop *interleaves* the two ends in a
single coroutine -- legal over real UDP (each ``await`` lets the event
loop move datagrams) and over netsim (whose async surface completes
inline, advancing simulated time inside ``recv``), which is precisely
the interface symmetry the transport tentpole promises.

Lost exchanges (possible only over a lossy substrate; loopback and the
perfect netsim segment never lose) are retried under the channel's
jittered backoff schedule, exercising the zero-message-keying
first-contact path: the opening datagram of the run *is* the keying
message, and a retry re-protects with a fresh timestamp.

The report is ledger-only -- no timing, no addresses, no PIDs -- so a
lossless run is byte-identical across repetitions on any machine
(``tests/test_report_determinism.py`` runs both demos under two hash
seeds and compares the JSON byte for byte).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.core.config import FBSConfig
from repro.transport.channel import ATTEMPTS, SecureChannel, backoff, channel_pair
from repro.transport.netsim import netsim_transport_pair
from repro.transport.udp import UdpTransport

__all__ = ["run_echo", "build_netsim_channels", "build_udp_channels"]

#: Valid ``--demo`` substrates, in CLI order.
SUBSTRATES = ("netsim", "udp")


def build_netsim_channels(
    seed: int = 0, config: Optional[FBSConfig] = None
) -> Tuple[SecureChannel, SecureChannel]:
    """A channel pair over a private two-host simulated segment."""
    from repro.netsim.network import Network

    net = Network(seed=seed)
    net.add_segment("echo", "10.77.0.0")
    client_host = net.add_host("echo-client", segment="echo")
    server_host = net.add_host("echo-server", segment="echo")
    t_client, t_server = netsim_transport_pair(client_host, server_host)
    return channel_pair(t_client, t_server, seed=seed, config=config)


async def build_udp_channels(
    seed: int = 0, config: Optional[FBSConfig] = None
) -> Tuple[SecureChannel, SecureChannel]:
    """A channel pair over real loopback UDP sockets (ephemeral ports).

    Only the client learns its peer up front; the server adopts the
    client's address from the first datagram that arrives -- first
    contact needs no out-of-band address exchange, matching the
    zero-message-keying story one layer down.
    """
    t_server = await UdpTransport.create()
    t_client = await UdpTransport.create(remote=t_server.local_address)
    return channel_pair(t_client, t_server, seed=seed, config=config)


async def run_echo(
    substrate: str = "netsim",
    datagrams: int = 50,
    payload_size: int = 64,
    seed: int = 0,
    timeout: float = 1.0,
) -> Dict[str, object]:
    """Run the echo workload; return the ledger-only report dict."""
    if substrate == "netsim":
        client, server = build_netsim_channels(seed=seed)
    elif substrate == "udp":
        client, server = await build_udp_channels(seed=seed)
    else:
        raise ValueError(
            f"unknown substrate {substrate!r}; expected one of {SUBSTRATES}"
        )

    rng = random.Random(seed)
    echoed = 0
    exchanges_retried = 0
    for i in range(datagrams):
        payload = b"echo %06d|" % i + bytes((seed + i + j) % 256 for j in range(
            max(0, payload_size - 12)
        ))
        reply = None
        for attempt in range(ATTEMPTS):
            if attempt:
                exchanges_retried += 1
                await client.transport.sleep(backoff(attempt - 1, rng))
            await client.send(payload)
            # Serve one echo: over UDP the awaits inside recv() run the
            # event loop; over netsim they advance simulated time.
            request = await server.recv(timeout)
            if request is not None:
                await server.send(request)
            reply = await client.recv(timeout)
            if reply == payload:
                break
            reply = None
        if reply is not None:
            echoed += 1

    await client.close()
    await server.close()

    return {
        "workload": "echo",
        "substrate": substrate,
        "datagrams": datagrams,
        "payload_size": payload_size,
        "seed": seed,
        "echoed": echoed,
        "exchanges_retried": exchanges_retried,
        "client": client.ledger_dict(),
        "server": server.ledger_dict(),
    }
