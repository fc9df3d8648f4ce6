"""The shared Merkle-Damgard driver against hashlib, over both hashes.

``MD5`` and ``SHA1`` are the same streaming class
(:class:`repro.crypto._md.MerkleDamgard`) with a compress function, an
initial state and a byte order each, so one differential body covers the
driver for both: random lengths, random chunking, and a ``copy()`` taken
mid-stream that must neither disturb nor follow the original.
"""

import hashlib
import random

import pytest

from repro.crypto._md import MerkleDamgard
from repro.crypto.md5 import MD5
from repro.crypto.sha1 import SHA1

HASHES = [(MD5, hashlib.md5), (SHA1, hashlib.sha1)]


@pytest.mark.parametrize("ours_cls,theirs_cls", HASHES, ids=["md5", "sha1"])
class TestDriverAgainstHashlib:
    def test_random_lengths_chunking_and_midstream_copy(self, ours_cls, theirs_cls):
        rng = random.Random(0x4D44)
        for _ in range(60):
            data = rng.randbytes(rng.randrange(0, 301))
            cuts = sorted(rng.randrange(0, len(data) + 1) for _ in range(rng.randrange(0, 8)))
            chunks = [data[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(data)])]
            fork_before = rng.randrange(0, len(chunks) + 1)
            suffix = rng.randbytes(rng.randrange(0, 130))
            ours, theirs = ours_cls(), theirs_cls()
            for k in range(len(chunks) + 1):
                if k == fork_before:
                    ours_fork, theirs_fork = ours.copy(), theirs.copy()
                    ours_fork.update(suffix)
                    theirs_fork.update(suffix)
                if k < len(chunks):
                    ours.update(chunks[k])
                    theirs.update(chunks[k])
            assert ours.digest() == theirs.digest()
            assert ours.hexdigest() == theirs.hexdigest()
            assert ours_fork.digest() == theirs_fork.digest()
            assert type(ours_fork) is ours_cls

    def test_object_protocol(self, ours_cls, theirs_cls):
        ours, theirs = ours_cls(b"abc"), theirs_cls(b"abc")
        assert isinstance(ours, MerkleDamgard)
        assert ours.name == theirs.name
        assert ours.digest_size == theirs.digest_size
        assert ours.block_size == theirs.block_size
        assert ours.digest() == theirs.digest()
