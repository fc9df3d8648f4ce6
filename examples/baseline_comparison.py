#!/usr/bin/env python3
"""Baseline comparison: FBS vs the Section 2 keying paradigms.

Runs the same workload (several UDP conversations between two hosts)
over every scheme and compares the dimensions the paper argues on:

* setup messages before the first data byte (datagram semantics),
* key generations per datagram (the SKIP/per-datagram cost),
* state model (hard vs soft),
* throughput under the Pentium-133 cost model.

Run:  python examples/baseline_comparison.py
"""

from repro.baselines import install_scheme
from repro.bench import measure_udp_throughput, render_table
from repro.netsim import Network
from repro.netsim.sockets import UdpSocket


def run_workload(scheme, seed):
    """Send 3 conversations x 5 datagrams under `scheme`; the sender's module."""
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    a = net.add_host("a", segment="lan")
    b = net.add_host("b", segment="lan")
    module_a, _ = install_scheme(scheme, (a, b), 100 + seed)
    inboxes = [UdpSocket(b, 6000 + i) for i in range(3)]
    senders = [UdpSocket(a) for _ in range(3)]
    for round_ in range(5):
        for i, sender in enumerate(senders):
            sender.sendto(b"datagram %d" % round_, b.address, 6000 + i)
    net.sim.run()
    delivered = sum(len(inbox.received) for inbox in inboxes)
    assert delivered == 15, f"only {delivered}/15 delivered"
    return module_a


def main() -> None:
    fbs = run_workload("fbs", 1)
    run_workload("host-pair", 2)
    per_datagram = run_workload("host-pair-per-datagram", 3)
    kdc = run_workload("kdc-session", 4)
    photuris = run_workload("photuris-session", 5)
    skip = run_workload("skip", 6)
    derivations = fbs.endpoint.registry.counter("flow_key_derivations", side="send")
    rows = [
        ("FBS", 0, derivations.value, "soft (caches)", "per flow"),
        ("host-pair", 0, 1, "none (implicit key)", "per host pair"),
        ("host-pair + per-dgram", 0, per_datagram.keys_generated, "none", "per datagram (BBS)"),
        ("KDC (Kerberos-like)", kdc.setup_messages, 1, "hard (both ends)", "per session"),
        ("Photuris-like", photuris.setup_messages, 1, "hard (SAs)", "per session"),
        ("SKIP", 0, skip.packet_keys_generated, "soft", "per datagram"),
    ]

    print(
        render_table(
            [
                "scheme",
                "setup msgs",
                "key generations (15 dgrams)",
                "shared state",
                "key granularity",
            ],
            rows,
        )
    )

    print("\nThroughput under the Pentium-133 cost model (Figure 8 context):")
    throughput_rows = []
    for config in ("generic", "fbs-nop", "fbs-des-md5"):
        result = measure_udp_throughput(config, total_bytes=160_000)
        throughput_rows.append((config, f"{result.kbps:.0f} kb/s"))
    print(render_table(["configuration", "ttcp goodput"], throughput_rows))

    print(
        "\nFBS takeaway: zero setup messages like SKIP/host-pair keying,"
        "\nper-flow key generation (3 derivations for 3 conversations, not"
        "\n15 for 15 datagrams), and all shared state is discardable."
    )


if __name__ == "__main__":
    main()
