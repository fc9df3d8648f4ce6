#!/usr/bin/env python3
"""Site-to-site security gateways: Section 7.1's host/gateway mode.

Two office LANs are joined across an untrusted WAN by FBS gateways.
Interior machines run *no* security code and hold *no* keys; the
gateways encapsulate everything crossing the WAN inside FBS-protected
tunnel packets.  Because the gateways classify by the *inner* 5-tuple,
each end-to-end conversation still gets its own flow key -- the
conversation-level granularity that distinguishes FBS from bulk
gateway encryption.

A sniffer on the WAN sees only gateway-to-gateway packets: payloads
encrypted, interior addresses hidden (traffic-flow confidentiality).

Run:  python examples/site_to_site_gateway.py
"""

from repro.core.deploy import FBSDomain
from repro.netsim import Network
from repro.netsim.ipv4 import IPv4Packet
from repro.netsim.sockets import TcpClient, TcpServer, UdpSocket


def main() -> None:
    # Two sites and the WAN between them.
    net = Network(seed=31)
    net.add_segment("office-east", "10.0.1.0")
    net.add_segment("office-west", "10.0.2.0")
    net.add_segment("wan", "192.168.0.0")
    east_pc = net.add_host("east-pc", segment="office-east")
    west_srv = net.add_host("west-server", segment="office-west")
    gw_east = net.add_router("gw-east", segments=["office-east", "wan"])
    gw_west = net.add_router("gw-west", segments=["office-west", "wan"])
    net.add_default_route(east_pc, "office-east", gw_east)
    net.add_default_route(west_srv, "office-west", gw_west)
    net.add_default_route(gw_east, "wan", gw_west)
    net.add_default_route(gw_west, "wan", gw_east)

    wan_frames = []
    net.segment("wan").attach_tap(wan_frames.append)

    # Enroll only the gateways.
    domain = FBSDomain(seed=32)
    tunnel_east = domain.enroll_gateway(gw_east)
    tunnel_west = domain.enroll_gateway(gw_west)
    tunnel_east.add_peer("10.0.2.0", 24, gw_west.address)
    tunnel_west.add_peer("10.0.1.0", 24, gw_east.address)

    # Interior traffic: a database query (UDP) and a file pull (TCP).
    db = UdpSocket(west_srv, 5432)
    db.on_receive = lambda q, src, sport: db.sendto(b"rows:" + q, src, sport)
    answers = []
    query_sock = UdpSocket(east_pc)
    query_sock.on_receive = lambda p, s, sp: answers.append(p)
    query_sock.sendto(b"SELECT * FROM payroll", west_srv.address, 5432)

    file_server = TcpServer(west_srv, 20)
    document = b"CONFIDENTIAL-QUARTERLY-REPORT " * 500
    original_accept = file_server._on_accept

    def accept_and_push(conn):
        original_accept(conn)
        conn.send(document)
        conn.close()

    west_srv.tcp._listeners[20] = accept_and_push
    puller = TcpClient(east_pc, west_srv.address, 20)

    net.sim.run()

    print(f"database answer:  {answers[0][:40]!r}...")
    assert answers and answers[0].startswith(b"rows:")
    print(f"file transferred: {len(puller.received)} bytes")
    assert bytes(puller.received) == document

    # What the WAN observer learned.
    endpoints = set()
    for frame in wan_frames:
        packet = IPv4Packet.decode(frame)
        endpoints.add((str(packet.header.src), str(packet.header.dst)))
    print(f"\nWAN frames observed: {len(wan_frames)}")
    print(f"WAN endpoint pairs:  {sorted(endpoints)}")
    assert all(
        not pair[0].startswith("10.0.1.") or pair[0] == str(gw_east.address)
        for pair in endpoints
    )
    leaked = any(b"CONFIDENTIAL" in f or b"payroll" in f for f in wan_frames)
    print(f"plaintext on WAN:    {leaked}")
    assert not leaked

    print(f"\ninterior hosts hold keys: "
          f"{east_pc.security is not None or west_srv.security is not None}")
    tunnel_flows = tunnel_east.endpoint.registry.counter("flows_started").value
    print(f"tunnel flows at gw-east:  {tunnel_flows}"
          " (one per interior conversation, not one bulk pipe)")
    assert tunnel_flows >= 2
    print("\nhost/gateway-to-host/gateway security with per-conversation"
          "\nflow keys -- Section 7.1's coarse mode, FBS granularity.")


if __name__ == "__main__":
    main()
