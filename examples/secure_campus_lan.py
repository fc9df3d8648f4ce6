#!/usr/bin/env python3
"""A secure campus LAN: FBS protecting a realistic mix of services.

Recreates the paper's deployment setting: a workgroup LAN with a file
server, a compute server, and several desktops, all speaking FBS at the
IP layer.  Applications run unmodified:

* an NFS-style UDP request/response service,
* a TELNET-style interactive TCP session,
* an FTP-style TCP bulk transfer (exercising the tcp_output MSS fix).

Afterwards the script reports each host's flow table and cache activity
-- the soft state that zero-message keying maintains.

Run:  python examples/secure_campus_lan.py
"""

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket


def main() -> None:
    net = Network(seed=10)
    net.add_segment("lan", "10.1.0.0")
    file_server = net.add_host("fileserver", segment="lan")
    compute = net.add_host("compute", segment="lan")
    desktops = [net.add_host(f"desk{i}", segment="lan") for i in range(4)]

    domain = FBSDomain(seed=11)
    mappings = {
        host.name: domain.enroll_host(host, encrypt_all=True)
        for host in [file_server, compute] + desktops
    }

    # --- An NFS-style service on the file server. -------------------------
    nfs = UdpSocket(file_server, 2049)

    def serve_nfs(payload, src, sport):
        nfs.sendto(b"NFS-DATA:" + payload + b":" + b"D" * 512, src, sport)

    nfs.on_receive = serve_nfs

    nfs_clients = []
    for desk in desktops:
        sock = UdpSocket(desk)
        sock.on_receive = lambda payload, src, sport, n=desk.name: results.setdefault(
            n, []
        ).append(payload)
        nfs_clients.append((desk, sock))

    results: dict = {}
    for i, (desk, sock) in enumerate(nfs_clients):
        for block in range(3):
            sock.sendto(b"READ block=%d" % block, file_server.address, 2049)

    # --- A TELNET-style session desk0 -> compute. --------------------------
    telnet_server = TcpServer(compute, 23)
    telnet_server.on_data = lambda conn, chunk: conn.send(b"% " + chunk)
    telnet = TcpClient(desktops[0], compute.address, 23)
    telnet.conn.on_connect = lambda: telnet.send(b"uname -a\n")

    # --- An FTP-style bulk pull desk1 <- file server. -----------------------
    ftp_server = TcpServer(file_server, 20)
    big_file = bytes(range(256)) * 256  # 64 KB

    def ftp_accept(conn):
        conn.send(big_file)
        conn.close()

    file_server.tcp.listen  # (port 20 already wired through TcpServer)
    ftp_server.on_data = None
    # Trigger: client connects, server pushes the file.
    original_accept = ftp_server._on_accept

    def accept_and_push(conn):
        original_accept(conn)
        conn.send(big_file)
        conn.close()

    file_server.tcp._listeners[20] = accept_and_push
    ftp = TcpClient(desktops[1], file_server.address, 20)

    net.sim.run()

    # --- Report. -------------------------------------------------------------
    print("NFS responses per desktop:")
    for name in sorted(results):
        print(f"  {name}: {len(results[name])} responses")
        assert len(results[name]) == 3

    print(f"telnet echo: {bytes(telnet.received)!r}")
    assert bytes(telnet.received) == b"% uname -a\n"

    print(f"ftp transfer: {len(ftp.received)} bytes (expected {len(big_file)})")
    assert bytes(ftp.received) == big_file

    print("\nPer-host FBS activity (soft state only):")
    header = f"{'host':<12} {'flows':>6} {'sent':>6} {'accepted':>9} {'keyderiv':>9} {'rejected':>9}"
    print(header)
    print("-" * len(header))
    for name, mapping in sorted(mappings.items()):
        registry = mapping.endpoint.registry
        count = registry.counter
        print(
            f"{name:<12} {count('flows_started').value:>6}"
            f" {count('datagrams_sent').value:>6}"
            f" {count('datagrams_accepted').value:>9}"
            f" {registry.sum_counter('flow_key_derivations'):>9}"
            f" {registry.sum_counter('datagrams_rejected'):>9}"
        )
        assert count("datagrams_rejected", reason="mac").value == 0

    server_endpoint = mappings["fileserver"].endpoint
    print(
        f"\nfile server caches: TFKC hits={server_endpoint.tfkc.stats.hits}"
        f" misses={server_endpoint.tfkc.stats.misses};"
        f" RFKC hits={server_endpoint.rfkc.stats.hits}"
        f" misses={server_endpoint.rfkc.stats.misses}"
    )
    print("All traffic encrypted, per-flow keys, zero setup messages.")


if __name__ == "__main__":
    main()
