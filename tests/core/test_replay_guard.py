"""Replay guard extension tests."""

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.header import FBSHeader
from repro.core.keying import Principal
from repro.core.replay_guard import DuplicateDatagramError, ReplayGuard


def header(sfl=1, confounder=7, mac=b"\x01" * 16, timestamp=100):
    return FBSHeader(sfl=sfl, confounder=confounder, mac=mac, timestamp=timestamp)


def make_guard(capacity=1024, freshness_half_window=120.0):
    return ReplayGuard(capacity, freshness_half_window)


class TestGuardUnit:
    def test_first_sighting_accepted(self):
        guard = make_guard()
        guard.check_and_remember(header(), now=0.0)  # no raise

    def test_duplicate_rejected(self):
        guard = make_guard()
        guard.check_and_remember(header(), now=0.0)
        with pytest.raises(DuplicateDatagramError):
            guard.check_and_remember(header(), now=1.0)

    def test_distinct_confounders_pass(self):
        guard = make_guard()
        guard.check_and_remember(header(confounder=1), now=0.0)
        guard.check_and_remember(header(confounder=2), now=0.0)

    def test_distinct_flows_pass(self):
        guard = make_guard()
        guard.check_and_remember(header(sfl=1), now=0.0)
        guard.check_and_remember(header(sfl=2), now=0.0)

    def test_window_expiry_readmits(self):
        guard = ReplayGuard(1024, freshness_half_window=20.0)
        assert guard.window == 100.0
        guard.check_and_remember(header(), now=0.0)
        # Past the window the memory is purged; the freshness check is
        # what rejects such old datagrams in the full protocol.
        guard.check_and_remember(header(), now=200.0)

    def test_capacity_bounded(self):
        guard = ReplayGuard(10, 120.0)
        for i in range(50):
            guard.check_and_remember(header(confounder=i), now=0.0)
        assert len(guard) == 10

    def test_flush_is_safe(self):
        guard = make_guard()
        guard.check_and_remember(header(), now=0.0)
        guard.flush()
        guard.check_and_remember(header(), now=1.0)  # re-admitted, no error

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayGuard(0, 120.0)


class TestGuardInProtocol:
    def _pair(self):
        config = FBSConfig(replay_guard_size=256)
        domain = FBSDomain(seed=5, config=config)
        clock = {"now": 0.0}
        alice = domain.make_endpoint(Principal.from_name("alice"), now=lambda: clock["now"])
        bob = domain.make_endpoint(Principal.from_name("bob"), now=lambda: clock["now"])
        return alice, bob, clock

    def test_in_window_replay_now_rejected(self):
        alice, bob, clock = self._pair()
        wire = alice.protect(b"pay me once", bob.principal, secret=True)
        assert bob.unprotect(wire, alice.principal, secret=True) == b"pay me once"
        clock["now"] = 5.0  # well inside the freshness window
        with pytest.raises(DuplicateDatagramError):
            bob.unprotect(wire, alice.principal, secret=True)
        assert bob.registry.counter("datagrams_rejected", reason="duplicate").value == 1

    def test_fresh_datagrams_unaffected(self):
        alice, bob, clock = self._pair()
        for i in range(20):
            wire = alice.protect(b"msg %d" % i, bob.principal)
            assert bob.unprotect(wire, alice.principal) == b"msg %d" % i

    def test_guard_off_by_default(self):
        domain = FBSDomain(seed=6)
        alice = domain.make_endpoint(Principal.from_name("alice"))
        bob = domain.make_endpoint(Principal.from_name("bob"))
        assert bob.replay_guard is None
        wire = alice.protect(b"dup ok", bob.principal)
        assert bob.unprotect(wire, alice.principal) == b"dup ok"
        # The paper's FBS: an in-window replay is accepted.
        assert bob.unprotect(wire, alice.principal) == b"dup ok"

    def test_forgery_cannot_poison_guard(self):
        # A tampered datagram dies at the MAC check *before* the guard,
        # so an attacker cannot pre-insert the legitimate datagram's id.
        alice, bob, clock = self._pair()
        wire = bytearray(alice.protect(b"real", bob.principal))
        forged = bytearray(wire)
        forged[-1] ^= 0x01
        with pytest.raises(Exception):
            bob.unprotect(bytes(forged), alice.principal)
        assert bob.unprotect(bytes(wire), alice.principal) == b"real"


class TestWindowFreshnessRelationship:
    """The guard's memory is the freshness span: window = 2*hw + 60."""

    def test_window_is_the_freshness_span(self):
        assert ReplayGuard(1024, freshness_half_window=120.0).window == 300.0

    def test_endpoint_construction_pins_the_relationship(self):
        # FBSEndpoint builds its guard from the config's freshness
        # half-window, so the window follows the config.
        domain = FBSDomain(
            seed=7,
            config=FBSConfig(replay_guard_size=16, freshness_half_window=45.0),
        )
        bob = domain.make_endpoint(Principal.from_name("bob"))
        assert bob.replay_guard is not None
        assert bob.replay_guard.window == 2 * 45.0 + 60.0


class TestMemoryInTheRegistry:
    """The guard's real memory, read from a snapshot of ``repro.obs``."""

    def test_capacity_evictions_of_fresh_entries_and_the_oldest_age(self):
        domain = FBSDomain(seed=8, config=FBSConfig(replay_guard_size=4))
        clock = {"now": 0.0}
        alice = domain.make_endpoint(Principal.from_name("alice"), now=lambda: clock["now"])
        bob = domain.make_endpoint(Principal.from_name("bob"), now=lambda: clock["now"])
        for i in range(6):
            clock["now"] = float(i)
            wire = alice.protect(b"msg %d" % i, bob.principal)
            assert bob.unprotect(wire, alice.principal) == b"msg %d" % i
        clock["now"] = 10.0
        snapshot = bob.registry.snapshot()
        # Six fresh datagrams through four slots: the first two went
        # while a replay of them was still inside the freshness span.
        assert snapshot["counters"]["replay_guard_fresh_evictions"] == 2
        # The oldest remembered datagram is the third, accepted at 2 s.
        assert snapshot["gauges"]["replay_guard_oldest_age_s"] == 8.0
        bob.flush_all_caches()
        snapshot = bob.registry.snapshot()
        assert snapshot["gauges"]["replay_guard_oldest_age_s"] == 0.0
        assert snapshot["counters"]["replay_guard_fresh_evictions"] == 2

    def test_expired_entries_are_not_fresh_evictions(self):
        guard = ReplayGuard(2, freshness_half_window=20.0)
        for i in range(2):
            guard.check_and_remember(header(confounder=i), now=0.0)
        # Past the 100 s span both entries expire before the third lands.
        guard.check_and_remember(header(confounder=2), now=150.0)
        guard.check_and_remember(header(confounder=3), now=150.0)
        assert (guard.fresh_evictions, len(guard)) == (0, 2)
        assert guard.oldest_age(160.0) == 10.0

    def test_no_guard_registers_neither_metric(self):
        domain = FBSDomain(seed=9)
        bob = domain.make_endpoint(Principal.from_name("bob"))
        snapshot = bob.registry.snapshot()
        assert "replay_guard_fresh_evictions" not in snapshot["counters"]
        assert "replay_guard_oldest_age_s" not in snapshot["gauges"]
