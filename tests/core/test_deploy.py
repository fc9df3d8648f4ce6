"""Deployment helper tests: domains and enrollment."""

import pytest

from repro.core.deploy import FBSDomain
from repro.core.keying import Principal
from repro.netsim import Network
from tests.spec.fbs_spec import Domain, spec_receive


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

    def test_the_specification_reads_what_a_host_enrolled_with(self):
        # Each private value is filed under its principal's name, the
        # IP-mapped ones included, so the specification can re-derive
        # the flow key of a host's traffic.
        net = Network(seed=5)
        net.add_segment("lan", "10.0.0.0")
        domain = FBSDomain(seed=5)
        alice, bob = (
            domain.enroll_host(net.add_host(name, segment="lan")).endpoint
            for name in ("alice", "bob")
        )
        spec = Domain.enrolled(domain, alice.principal, bob.principal)
        wire = alice.protect(b"hi", bob.principal, secret=True)
        source, dest = alice.principal.wire_id, bob.principal.wire_id
        assert spec_receive(spec, source, dest, wire, 0.0, True, []) == (b"hi", None)
