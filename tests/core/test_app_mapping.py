"""Application-layer mapping tests: layer independence in action."""

import pytest

from repro.core.app_mapping import (
    ApplicationDirectory,
    ConversationPolicy,
    FBSApplication,
)
from repro.core.deploy import FBSDomain
from repro.core.fam import DatagramAttributes
from repro.core.flows import FlowStateTable, SflAllocator
from repro.core.keying import Principal
from repro.netsim import Network


def build_apps(names_hosts, seed=0):
    """names_hosts: list of (app name, host name); hosts created on one LAN."""
    net = Network(seed=seed)
    net.add_segment("lan", "10.0.0.0")
    hosts = {}
    for _, host_name in names_hosts:
        if host_name not in hosts:
            hosts[host_name] = net.add_host(host_name, segment="lan")
    domain = FBSDomain(seed=seed + 77)
    directory = ApplicationDirectory()
    apps = {}
    for i, (app_name, host_name) in enumerate(names_hosts):
        principal = Principal.from_name(app_name)
        host = hosts[host_name]
        mkd = domain.enroll_principal(principal, now=lambda h=host: h.sim.now)
        apps[app_name] = FBSApplication(
            host, principal, mkd, directory, sfl_seed=i + 1
        )
    return net, apps, domain


class TestDelivery:
    def test_roundtrip(self):
        net, apps, _ = build_apps([("alice@desk1", "desk1"), ("bob@desk2", "desk2")])
        received = []
        apps["bob@desk2"].on_receive = lambda body, src, tag: received.append(
            (body, src.name)
        )
        apps["alice@desk1"].send(b"app-level secret", "bob@desk2")
        net.sim.run()
        assert received == [(b"app-level secret", "alice@desk1")]

    def test_wire_confidentiality(self):
        net, apps, _ = build_apps([("a@h1", "h1"), ("b@h2", "h2")], seed=1)
        frames = []
        net.segment("lan").attach_tap(frames.append)
        apps["b@h2"].on_receive = lambda body, src, tag: None
        apps["a@h1"].send(b"DO-NOT-LEAK-THIS", "b@h2")
        net.sim.run()
        assert all(b"DO-NOT-LEAK-THIS" not in frame for frame in frames)

    def test_no_ip_mapping_involved(self):
        # The hosts run NO network-layer security; protection rides
        # entirely inside UDP payloads -- layer independence.
        net, apps, _ = build_apps([("a@h1", "h1"), ("b@h2", "h2")], seed=2)
        assert all(
            host.security is None
            for host in (apps["a@h1"].host, apps["b@h2"].host)
        )
        got = []
        apps["b@h2"].on_receive = lambda body, src, tag: got.append(body)
        apps["a@h1"].send(b"above the transport", "b@h2")
        net.sim.run()
        assert got == [b"above the transport"]


class TestPrincipalGranularity:
    def test_two_users_one_host_distinct_keys(self):
        # Two applications on the SAME machine have distinct pair keys
        # with a remote peer -- the granularity host keying cannot give.
        net, apps, _ = build_apps(
            [("user1@shared", "shared"), ("user2@shared", "shared"), ("server@srv", "srv")],
            seed=3,
        )
        server = Principal.from_name("server@srv")
        k1 = apps["user1@shared"].endpoint.mkd.master_key(server)
        k2 = apps["user2@shared"].endpoint.mkd.master_key(server)
        assert k1 != k2

    def test_both_users_can_talk(self):
        net, apps, _ = build_apps(
            [("user1@shared", "shared"), ("user2@shared", "shared"), ("server@srv", "srv")],
            seed=4,
        )
        got = []
        apps["server@srv"].on_receive = lambda body, src, tag: got.append(
            (src.name, body)
        )
        apps["user1@shared"].send(b"from one", "server@srv")
        apps["user2@shared"].send(b"from two", "server@srv")
        net.sim.run()
        assert sorted(got) == [("user1@shared", b"from one"), ("user2@shared", b"from two")]

    def test_impersonation_rejected(self):
        # user2 cannot claim to be user1: the flow key binds the source
        # principal, so a forged sender id fails the MAC.
        import struct

        net, apps, _ = build_apps(
            [("user1@shared", "shared"), ("user2@shared", "shared"), ("server@srv", "srv")],
            seed=5,
        )
        got = []
        server_app = apps["server@srv"]
        server_app.on_receive = lambda body, src, tag: got.append(src.name)
        # Craft: protect as user2 but claim user1 in the clear sender id.
        attacker = apps["user2@shared"]
        victim_id = Principal.from_name("user1@shared").wire_id
        peer, address, port = attacker.directory.resolve("server@srv")
        protected = attacker.endpoint.protect(b"evil", peer, secret=True)
        wire = struct.pack(">H", len(victim_id)) + victim_id + protected
        attacker._socket.sendto(wire, address, port)
        net.sim.run()
        assert got == []
        assert server_app.rejected == 1


class TestConversations:
    def test_conversation_tags_separate_flows(self):
        net, apps, _ = build_apps([("a@h1", "h1"), ("b@h2", "h2")], seed=6)
        apps["b@h2"].on_receive = lambda *args: None
        sender = apps["a@h1"]
        sender.send(b"frame", "b@h2", conversation=b"video")
        sender.send(b"sample", "b@h2", conversation=b"audio")
        sender.send(b"frame2", "b@h2", conversation=b"video")
        net.sim.run()
        assert sender.endpoint.registry.counter("flows_started").value == 2
        assert apps["b@h2"].delivered == 3

    def test_unknown_destination(self):
        net, apps, _ = build_apps([("a@h1", "h1")], seed=7)
        with pytest.raises(KeyError):
            apps["a@h1"].send(b"x", "ghost@nowhere")

    def test_unknown_sender_rejected(self):
        import struct

        net, apps, _ = build_apps([("a@h1", "h1"), ("b@h2", "h2")], seed=8)
        target = apps["b@h2"]
        # A datagram claiming an unregistered sender id.
        wire = struct.pack(">H", 5) + b"ghost" + b"\x00" * 40
        from repro.netsim.sockets import UdpSocket

        rogue = UdpSocket(apps["a@h1"].host)
        rogue.sendto(wire, target.host.address, target.port)
        net.sim.run()
        assert target.rejected == 1


class TestConversationPolicyUnit:
    def _attrs(self, dest=b"\x00\x03bob", tag=b"video", size=10):
        return DatagramAttributes(
            destination_id=dest, size=size, extra={"conversation": tag}
        )

    def test_same_tag_same_flow(self):
        fst, alloc = FlowStateTable(32), SflAllocator(seed=1)
        policy = ConversationPolicy()
        a = policy.classify(self._attrs(), 0.0, fst, alloc)
        b = policy.classify(self._attrs(), 1.0, fst, alloc)
        assert a.sfl == b.sfl

    def test_different_tags_different_flows(self):
        fst, alloc = FlowStateTable(32), SflAllocator(seed=1)
        policy = ConversationPolicy()
        a = policy.classify(self._attrs(tag=b"video"), 0.0, fst, alloc).sfl
        b = policy.classify(self._attrs(tag=b"audio"), 0.0, fst, alloc).sfl
        assert a != b

    def test_string_tags_accepted(self):
        fst, alloc = FlowStateTable(32), SflAllocator(seed=1)
        policy = ConversationPolicy()
        entry = policy.classify(self._attrs(tag="whiteboard"), 0.0, fst, alloc)
        assert entry.valid

    def test_threshold_expiry(self):
        fst, alloc = FlowStateTable(32), SflAllocator(seed=1)
        policy = ConversationPolicy(threshold=100.0)
        first = policy.classify(self._attrs(), 0.0, fst, alloc).sfl
        second = policy.classify(self._attrs(), 500.0, fst, alloc).sfl
        assert first != second
        assert policy.repeated_flows == 1
