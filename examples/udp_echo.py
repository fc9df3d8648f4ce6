#!/usr/bin/env python3
"""Echo over real UDP sockets: FBS-protected datagrams on 127.0.0.1.

The other examples run over the simulated network; this one sends FBS
datagrams through the kernel.  A server transport binds an ephemeral
UDP port, a client transport points at it, and a ``channel_pair``
enrolls both ends in one FBS domain -- the endpoints take their clocks
from their transports, so the same protocol code that runs on the
simulator's virtual clock here runs on ``time.monotonic()``.

First contact is the interesting part: FBS keying is zero-message, so
the opening datagram of the flow *is* the keying message.  If it is
lost there is no handshake to time out -- only silence -- so
``SecureChannel.request`` resends under a jittered exponential backoff
until a reply arrives.  On loopback nothing is lost and the first
attempt lands; over a real WAN the same call absorbs the loss.

Run:  python examples/udp_echo.py
"""

import asyncio

from repro.transport import RetryPolicy, UdpTransport, channel_pair


async def run() -> None:
    # 1. Real sockets.  The server binds an ephemeral loopback port and
    #    knows no peer; the client points at the server's address.  The
    #    server adopts the client's address from the first datagram that
    #    arrives -- no out-of-band address exchange.
    server_transport = await UdpTransport.create()
    host, port = server_transport.local_address
    print(f"server listening on {host}:{port} (ephemeral)")
    client_transport = await UdpTransport.create(
        remote=server_transport.local_address
    )

    # 2. One FBS domain, two principals.  Each endpoint reads time from
    #    its transport, and each channel reads an accept/reject ledger
    #    off its endpoint's counters.
    retry = RetryPolicy(initial=0.05, cap=1.0, jitter=0.5, attempts=8)
    client, server = channel_pair(
        client_transport, server_transport, seed=7, retry=retry
    )

    # 3. The server side: unprotect each datagram, re-protect the body,
    #    echo it back.  Plain application code -- FBS rides below it.
    async def echo_server() -> None:
        while True:
            body = await server.recv(timeout=0.1)
            if body is not None:
                await server.send(body)

    server_task = asyncio.ensure_future(echo_server())

    # 4. First contact.  The opening datagram keys the flow *and*
    #    carries the payload; request() would resend it under backoff if
    #    the kernel lost it.
    reply = await client.request(b"hello over the kernel", timeout=0.5)
    print(
        f"first contact: {client.ledger_dict()['sent']} datagram(s) sent, "
        f"reply {reply!r}"
    )
    assert reply == b"hello over the kernel"

    # 5. Steady state: nine more echoes through the same flow.
    for i in range(9):
        body = b"echo %d" % i
        reply = await client.request(body, timeout=0.5)
        assert reply == body
    server_task.cancel()

    # 6. The ledgers agree: everything sent was accepted, nothing was
    #    rejected, and the transport counters match the channel's.
    for name, channel in (("client", client), ("server", server)):
        ledger = channel.ledger_dict()
        print(
            f"{name}: sent={ledger['sent']} accepted={ledger['accepted']} "
            f"rejected={sum(ledger['rejected'].values())} "
            f"(transport sent={ledger['transport']['datagrams_sent']}, "
            f"received={ledger['transport']['datagrams_received']})"
        )
        assert ledger["accepted"] == 10
        assert sum(ledger["rejected"].values()) == 0

    # 7. Graceful shutdown: close() flushes the send buffer and waits
    #    (bounded) for the socket to report closure.
    await client.close()
    await server.close()
    print("sockets closed cleanly")


def main() -> None:
    asyncio.run(run())


if __name__ == "__main__":
    main()
