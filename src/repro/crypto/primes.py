"""Primality testing and prime generation for DH/RSA parameters.

All randomness is drawn from an explicit seeded source so parameter
generation is reproducible; nothing in this module touches global RNG
state.
"""

from __future__ import annotations

import random as _random
from typing import Optional

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "SMALL_PRIMES",
]

#: Small primes used for fast trial division before Miller-Rabin.
SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def is_probable_prime(n: int, rounds: int = 24, rng: Optional[_random.Random] = None) -> bool:
    """Miller-Rabin primality test.

    Parameters
    ----------
    n:
        Candidate integer.
    rounds:
        Number of random bases; error probability is at most 4**-rounds.
    rng:
        Optional seeded source for the bases (deterministic testing).
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = rng or _random.Random(n)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: _random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits."""
    if bits < 3:
        raise ValueError("prime size must be at least 3 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate

