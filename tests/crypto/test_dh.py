"""Diffie-Hellman tests: agreement, group hygiene, degenerate values."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import DHGroup, DHPrivateKey, WELL_KNOWN_GROUPS
from repro.crypto.mac import constant_time_equal
from repro.crypto.primes import is_probable_prime


@pytest.fixture
def group():
    return WELL_KNOWN_GROUPS["TEST128"]


class TestAgreement:
    def test_both_sides_agree(self, group):
        rng = random.Random(1)
        s = DHPrivateKey.generate(group, rng)
        d = DHPrivateKey.generate(group, rng)
        assert s.agree(d.public).reveal() == d.agree(s.public).reveal()

    def test_pairwise_keys_differ(self, group):
        rng = random.Random(2)
        a = DHPrivateKey.generate(group, rng)
        b = DHPrivateKey.generate(group, rng)
        c = DHPrivateKey.generate(group, rng)
        assert a.agree(b.public).reveal() != a.agree(c.public).reveal()

    def test_shared_secret_fixed_width(self, group):
        rng = random.Random(3)
        a = DHPrivateKey.generate(group, rng)
        b = DHPrivateKey.generate(group, rng)
        assert len(a.agree(b.public)) == group.key_bytes

    def test_deterministic_generation(self, group):
        a = DHPrivateKey.generate(group, random.Random(42))
        b = DHPrivateKey.generate(group, random.Random(42))
        assert a.private == b.private and a.public == b.public


class TestGroups:
    @pytest.mark.parametrize("name", sorted(WELL_KNOWN_GROUPS))
    def test_every_group_is_a_safe_prime_group(self, name):
        # The setting in which a short private value is sound: p and
        # q = (p-1)/2 both prime, and g generating the order-q subgroup.
        group = WELL_KNOWN_GROUPS[name]
        q = (group.p - 1) // 2
        assert is_probable_prime(group.p)
        assert is_probable_prime(q)
        assert group.g != 1 and pow(group.g, q, group.p) == 1

    def test_oakley_groups_present(self):
        assert WELL_KNOWN_GROUPS["OAKLEY1"].p.bit_length() == 768
        assert WELL_KNOWN_GROUPS["OAKLEY2"].p.bit_length() == 1024

    def test_public_value_computation(self, group):
        assert group.public_value(1) == group.g
        assert group.public_value(2) == pow(group.g, 2, group.p)


class TestPrivateValueLength:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(sorted(WELL_KNOWN_GROUPS)),
    )
    def test_generate_draws_exactly_the_stated_length(self, seed, name):
        group = WELL_KNOWN_GROUPS[name]
        rng = random.Random(seed)
        s = DHPrivateKey.generate(group, rng)
        d = DHPrivateKey.generate(group, rng)
        for key in (s, d):
            assert key.private.bit_length() == min(256, group.p.bit_length() - 2)
            assert key.private < (group.p - 1) // 2
        assert constant_time_equal(s.agree(d.public).reveal(), d.agree(s.public).reveal())

    def test_constructor_keeps_the_full_range(self, group):
        key = DHPrivateKey(group=group, private=group.p - 3)
        assert key.public == group.public_value(group.p - 3)


class TestDegenerateValues:
    @pytest.mark.parametrize("bad", [0, 1])
    def test_rejects_small_degenerate_publics(self, group, bad):
        rng = random.Random(4)
        key = DHPrivateKey.generate(group, rng)
        with pytest.raises(ValueError):
            key.agree(bad)

    def test_rejects_p_minus_one(self, group):
        rng = random.Random(5)
        key = DHPrivateKey.generate(group, rng)
        with pytest.raises(ValueError):
            key.agree(group.p - 1)

    def test_rejects_out_of_range(self, group):
        rng = random.Random(6)
        key = DHPrivateKey.generate(group, rng)
        with pytest.raises(ValueError):
            key.agree(group.p + 5)

    def test_rejects_bad_private_value(self, group):
        with pytest.raises(ValueError):
            DHPrivateKey(group=group, private=1)
        with pytest.raises(ValueError):
            DHPrivateKey(group=group, private=group.p)
