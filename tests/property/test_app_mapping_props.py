"""Property tests for the application-layer mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.app_mapping import ApplicationDirectory, FBSApplication
from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.netsim import Network


@pytest.fixture(scope="module")
def app_world():
    net = Network(seed=88)
    net.add_segment("lan", "10.0.0.0", bandwidth_bps=1e9)
    h1 = net.add_host("h1", segment="lan")
    h2 = net.add_host("h2", segment="lan")
    domain = FBSDomain(seed=89)
    directory = ApplicationDirectory()
    apps = {}
    for i, (name, host) in enumerate((("sender", h1), ("receiver", h2))):
        principal = Principal.from_name(name)
        mkd = domain.enroll_principal(principal, now=lambda h=host: h.sim.now)
        apps[name] = FBSApplication(host, principal, mkd, directory, sfl_seed=i + 1)
    inbox = []
    apps["receiver"].on_receive = lambda body, src, tag: inbox.append((body, src.name))
    return net, apps, inbox


class TestAppRoundtrip:
    @given(
        payload=st.binary(min_size=0, max_size=1024),
        conversation=st.binary(min_size=0, max_size=16),
        secret=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_payload_any_tag(self, app_world, payload, conversation, secret):
        net, apps, inbox = app_world
        before = len(inbox)
        apps["sender"].send(
            payload, "receiver", conversation=conversation, secret=secret
        )
        net.sim.run()
        # secret is negotiated out of band in this mapping: receivers
        # always decrypt, so a MAC-only datagram is dropped and an
        # encrypted one delivered.
        if secret:
            assert inbox[before:] == [(payload, "sender")]
        else:
            assert inbox[before:] == []

    @given(payloads=st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_ordering_preserved_on_clean_network(self, app_world, payloads):
        net, apps, inbox = app_world
        before = len(inbox)
        for payload in payloads:
            apps["sender"].send(payload, "receiver", conversation=b"seq")
        net.sim.run()
        assert [body for body, _ in inbox[before:]] == payloads
