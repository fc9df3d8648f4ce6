#!/usr/bin/env python3
"""FBS above the transport: per-user keying on a shared machine.

The paper's protocol is layer-independent: Section 7 maps it to IP, but
principals "could be ... applications, or end users".  This example runs
FBS *inside UDP payloads* with named users as principals:

* two users share one multi-user machine, yet hold distinct pair keys
  with the server -- compromise of one user's keys exposes nothing of
  the other's traffic (the granularity host-pair keying cannot offer,
  Section 2.2);
* application conversations ("video", "audio") are separate flows with
  separate keys, the Section 1 application-layer flow example;
* no network-layer security is installed at all.

Run:  python examples/app_level_security.py
"""

from repro.core.app_mapping import ApplicationDirectory, FBSApplication
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.netsim import Network


def main() -> None:
    net = Network(seed=21)
    net.add_segment("lan", "10.3.0.0")
    shared = net.add_host("shared-workstation", segment="lan")
    server_host = net.add_host("media-server", segment="lan")

    domain = FBSDomain(seed=22)
    directory = ApplicationDirectory()

    def make_app(name, host, seed):
        principal = Principal.from_name(name)
        mkd = domain.enroll_principal(principal, now=lambda: net.sim.now)
        return FBSApplication(host, principal, mkd, directory, sfl_seed=seed)

    alice = make_app("alice", shared, 1)
    mallory = make_app("mallory", shared, 2)  # another user, same machine
    server = make_app("media-server", server_host, 3)

    received = []
    server.on_receive = lambda body, src, tag: received.append((src.name, body))

    # Alice streams two conversations; Mallory sends his own traffic.
    alice.send(b"[video frame 1]", "media-server", conversation=b"video")
    alice.send(b"[audio sample 1]", "media-server", conversation=b"audio")
    alice.send(b"[video frame 2]", "media-server", conversation=b"video")
    mallory.send(b"[mallory upload]", "media-server", conversation=b"bulk")
    net.sim.run()

    print("server received:")
    for src, body in received:
        print(f"  from {src}: {body!r}")
    assert len(received) == 4

    alice_flows = alice.endpoint.registry.counter("flows_started").value
    mallory_flows = mallory.endpoint.registry.counter("flows_started").value
    print(f"\nalice's flows:   {alice_flows} (video + audio conversations)")
    print(f"mallory's flows: {mallory_flows}")
    assert alice_flows == 2

    # The per-user isolation host-pair keying cannot express: the two
    # users on the shared machine have unrelated pair keys with the
    # server, even though all their packets carry the same IP source.
    server_principal = Principal.from_name("media-server")
    k_alice = alice.endpoint.mkd.master_key(server_principal)
    k_mallory = mallory.endpoint.mkd.master_key(server_principal)
    print(f"\nsame source IP for both users: True (host {shared.name})")
    print(f"alice and mallory share a pair key with the server: "
          f"{k_alice == k_mallory}")
    assert k_alice != k_mallory

    print(f"network-layer security installed: {shared.security is not None}")
    assert shared.security is None
    print("\nFBS ran entirely above UDP: same protocol, different layer,"
          "\nfiner principals -- the paper's layer-independence in action.")


if __name__ == "__main__":
    main()
