"""Deployment helper tests: domains and enrollment."""

import pytest

from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.netsim import Network


class TestDomain:
    def test_enrolled_principals_interoperate(self):
        domain = FBSDomain(seed=1)
        alice = domain.make_endpoint(Principal.from_name("alice"))
        bob = domain.make_endpoint(Principal.from_name("bob"))
        wire = alice.protect(b"hi", bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == b"hi"

    def test_cross_domain_rejected(self):
        domain1 = FBSDomain(seed=1)
        domain2 = FBSDomain(seed=2)
        alice = domain1.make_endpoint(Principal.from_name("alice"))
        # bob enrolled in a different domain (different CA): alice's
        # directory doesn't know him.
        bob = domain2.make_endpoint(Principal.from_name("bob"))
        with pytest.raises(Exception):
            alice.protect(b"hi", bob.principal)

    def test_private_keys_recorded(self):
        domain = FBSDomain(seed=3)
        domain.make_endpoint(Principal.from_name("alice"))
        assert "alice" in domain.private_keys

    def test_enroll_host_installs_mapping(self):
        net = Network(seed=4)
        net.add_segment("lan", "10.0.0.0")
        host = net.add_host("h", segment="lan")
        domain = FBSDomain(seed=4)
        mapping = domain.enroll_host(host)
        assert host.security is mapping
        assert host.stack.output_hook is not None

