"""Odds and ends: public API surface and small contracts."""

import pytest


class TestPublicApi:
    def test_root_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_core_exports(self):
        import repro.core

        for name in repro.core.__all__:
            assert getattr(repro.core, name, None) is not None, name

    def test_netsim_exports(self):
        import repro.netsim

        for name in repro.netsim.__all__:
            assert getattr(repro.netsim, name, None) is not None, name

    def test_crypto_exports(self):
        import repro.crypto

        for name in repro.crypto.__all__:
            assert getattr(repro.crypto, name, None) is not None, name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestMetricsContracts:
    def test_rejected_property(self):
        # Rejected is not a stored count: it is received minus accepted,
        # and the labeled rejection counters sum to exactly that.
        from repro.core.deploy import FBSDomain
        from repro.core.errors import ReceiveError
        from repro.core.keying import Principal

        domain = FBSDomain(seed=5)
        alice = domain.make_endpoint(Principal.from_name("alice"))
        bob = domain.make_endpoint(Principal.from_name("bob"))
        wire = alice.protect(b"counted", bob.principal)
        for data in (wire, wire[:-1] + b"\x00", wire[:3], wire):
            try:
                bob.unprotect(data, alice.principal)
            except ReceiveError:
                pass
        count = bob.registry.counter
        received = count("datagrams_received").value
        accepted = count("datagrams_accepted").value
        assert (received, accepted) == (4, 2)
        assert bob.registry.sum_counter("datagrams_rejected") == 2

    def test_routed_throughput_unknown_mode(self):
        from repro.bench import measure_routed_udp_throughput

        with pytest.raises(ValueError):
            measure_routed_udp_throughput("quantum")
