#!/usr/bin/env python3
"""Quickstart: secure datagrams between two hosts with zero-message keying.

Builds a two-host Ethernet segment, enrolls both hosts in an FBS
security domain, and sends an encrypted UDP datagram -- no handshake, no
security association setup, no extra messages.  A promiscuous sniffer on
the segment demonstrates that the payload never appears on the wire in
the clear.

Run:  python examples/quickstart.py
"""

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.sockets import UdpSocket


def main() -> None:
    # 1. A network: one shared 10 Mb/s Ethernet segment, two hosts.
    net = Network(seed=1)
    net.add_segment("lan", "10.0.0.0")
    alice = net.add_host("alice", segment="lan")
    bob = net.add_host("bob", segment="lan")

    # A sniffer sees every frame (this is what an attacker sees too).
    sniffed = []
    net.segment("lan").attach_tap(sniffed.append)

    # 2. A security domain: certificate authority + directory.  Enrolling
    #    a host generates its Diffie-Hellman keys, publishes a certified
    #    public value, and installs FBS at the IP layer.
    domain = FBSDomain(seed=2)
    alice_fbs = domain.enroll_host(alice, encrypt_all=True)
    bob_fbs = domain.enroll_host(bob, encrypt_all=True)

    # 3. Plain sockets.  FBS is transparent to applications.
    inbox = UdpSocket(bob, 4000)
    sender = UdpSocket(alice)
    secret = b"wire transfer: $1,000,000 to account 42"
    sender.sendto(secret, bob.address, 4000)

    net.sim.run()

    # 4. Delivered intact -- and never visible on the wire.
    payload, src, _ = inbox.received[0]
    print(f"bob received from {src}: {payload!r}")
    assert payload == secret
    leaked = any(secret in frame for frame in sniffed)
    print(f"plaintext visible to the sniffer: {leaked}")
    assert not leaked

    # 5. Zero-message keying: no packets beyond the datagram itself.
    print(f"frames on the wire: {len(sniffed)} (the datagram, nothing else)")
    alice_count = alice_fbs.endpoint.registry.counter
    bob_count = bob_fbs.endpoint.registry.counter
    print(
        f"alice: flows started={alice_count('flows_started').value}, "
        f"flow keys derived={alice_count('flow_key_derivations', side='send').value}, "
        f"datagrams protected={alice_count('datagrams_sent').value}"
    )
    print(
        f"bob:   datagrams accepted={bob_count('datagrams_accepted').value}, "
        f"MAC failures={bob_count('datagrams_rejected', reason='mac').value}"
    )


if __name__ == "__main__":
    main()
