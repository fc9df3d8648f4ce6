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

from repro.baselines import (
    HostPairKeying,
    KdcSessionKeying,
    KeyDistributionCenter,
    PerDatagramHostPair,
    PhoturisSessionKeying,
    SkipHostKeying,
)
from repro.bench import measure_udp_throughput, render_table
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.netsim import Network
from repro.netsim.sockets import UdpSocket


def run_workload(installer, seed):
    """Send 3 conversations x 5 datagrams through `installer`'s scheme."""
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    a = net.add_host("a", segment="lan")
    b = net.add_host("b", segment="lan")
    module_a, module_b = installer(net, a, b)
    inboxes = [UdpSocket(b, 6000 + i) for i in range(3)]
    senders = [UdpSocket(a) for _ in range(3)]
    for round_ in range(5):
        for i, sender in enumerate(senders):
            sender.sendto(b"datagram %d" % round_, b.address, 6000 + i)
    net.sim.run()
    delivered = sum(len(inbox.received) for inbox in inboxes)
    assert delivered == 15, f"only {delivered}/15 delivered"
    return module_a, module_b


def main() -> None:
    rows = []

    # FBS -------------------------------------------------------------------
    def install_fbs(net, a, b):
        domain = FBSDomain(seed=100)
        return domain.enroll_host(a, encrypt_all=True), domain.enroll_host(
            b, encrypt_all=True
        )

    fbs_a, _ = run_workload(install_fbs, 1)
    rows.append(
        (
            "FBS",
            0,
            fbs_a.endpoint.registry.counter("flow_key_derivations", side="send").value,
            "soft (caches)",
            "per flow",
        )
    )

    # Host-pair keying --------------------------------------------------------
    def install_hostpair(net, a, b):
        domain = FBSDomain(seed=101)
        mkd_a = domain.enroll_principal(Principal.from_ip(a.address))
        mkd_b = domain.enroll_principal(Principal.from_ip(b.address))
        ma, mb = HostPairKeying(a, mkd_a), HostPairKeying(b, mkd_b)
        a.install_security(ma)
        b.install_security(mb)
        return ma, mb

    run_workload(install_hostpair, 2)
    rows.append(("host-pair", 0, 1, "none (implicit key)", "per host pair"))

    # Host-pair + per-datagram keys ---------------------------------------------
    def install_perdatagram(net, a, b):
        domain = FBSDomain(seed=102)
        mkd_a = domain.enroll_principal(Principal.from_ip(a.address))
        mkd_b = domain.enroll_principal(Principal.from_ip(b.address))
        ma, mb = PerDatagramHostPair(a, mkd_a), PerDatagramHostPair(b, mkd_b)
        a.install_security(ma)
        b.install_security(mb)
        return ma, mb

    pd_a, _ = run_workload(install_perdatagram, 3)
    rows.append(
        ("host-pair + per-dgram", 0, pd_a.keys_generated, "none", "per datagram (BBS)")
    )

    # KDC session keying -----------------------------------------------------------
    def install_kdc(net, a, b):
        kdc = KeyDistributionCenter(seed=103)
        ma, mb = KdcSessionKeying(a, kdc), KdcSessionKeying(b, kdc)
        a.install_security(ma)
        b.install_security(mb)
        return ma, mb

    kdc_a, _ = run_workload(install_kdc, 4)
    rows.append(("KDC (Kerberos-like)", kdc_a.setup_messages, 1, "hard (both ends)", "per session"))

    # Photuris session keying ---------------------------------------------------------
    def install_photuris(net, a, b):
        registry = {}
        ma = PhoturisSessionKeying(a, registry, dh_private_seed=7)
        mb = PhoturisSessionKeying(b, registry, dh_private_seed=8)
        a.install_security(ma)
        b.install_security(mb)
        return ma, mb

    ph_a, _ = run_workload(install_photuris, 5)
    rows.append(("Photuris-like", ph_a.setup_messages, 1, "hard (SAs)", "per session"))

    # SKIP ---------------------------------------------------------------------------
    def install_skip(net, a, b):
        domain = FBSDomain(seed=104)
        mkd_a = domain.enroll_principal(Principal.from_ip(a.address))
        mkd_b = domain.enroll_principal(Principal.from_ip(b.address))
        ma, mb = SkipHostKeying(a, mkd_a), SkipHostKeying(b, mkd_b)
        a.install_security(ma)
        b.install_security(mb)
        return ma, mb

    skip_a, _ = run_workload(install_skip, 6)
    rows.append(("SKIP", 0, skip_a.packet_keys_generated, "soft", "per datagram"))

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
