"""Primality and prime-generation tests."""

import random

import pytest

from repro.crypto.primes import generate_prime, is_probable_prime


class TestIsProbablePrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 199):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 9, 15, 91, 100, 561):  # 561 is a Carmichael number
            assert not is_probable_prime(n)

    def test_negative(self):
        assert not is_probable_prime(-7)

    def test_known_large_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime M127

    def test_known_large_composite(self):
        assert not is_probable_prime(2**128 - 1)

    def test_product_of_two_primes(self):
        assert not is_probable_prime((2**31 - 1) * (2**61 - 1))


class TestGeneratePrime:
    @pytest.mark.parametrize("bits", [8, 16, 32, 64, 128])
    def test_bit_length_exact(self, bits):
        p = generate_prime(bits, random.Random(bits))
        assert p.bit_length() == bits
        assert is_probable_prime(p)

    def test_deterministic(self):
        a = generate_prime(64, random.Random(5))
        b = generate_prime(64, random.Random(5))
        assert a == b

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_prime(2, random.Random(0))

