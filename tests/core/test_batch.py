"""The batch surface's own contract: parallel-argument validation and
the result's tallies.

That a stream's wire bytes, bodies and rejection reasons do not depend
on how it is cut into calls is checked against the specification by
``tests/property/test_soft_state_machine.py``.
"""

import pytest

from repro.core.config import FBSConfig
from repro.core.deploy import FBSDomain
from repro.core.errors import FBSError
from repro.core.keying import Principal
from repro.core.protocol import BatchReceiveResult


class Clock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


def make_pair(config=None, seed=7):
    clock = Clock()
    domain = FBSDomain(seed=seed, config=config or FBSConfig())
    alice = domain.make_endpoint(Principal.from_name("alice"), now=clock)
    bob = domain.make_endpoint(Principal.from_name("bob"), now=clock)
    return alice, bob, clock


class TestBatchValidation:
    def test_parallel_length_mismatches_raise_fbserror(self):
        alice, bob, _ = make_pair()
        with pytest.raises(FBSError):
            alice.protect_batch([b"x"], bob.principal, stamps=[0.0, 1.0])
        with pytest.raises(FBSError):
            alice.protect_batch([b"x"], bob.principal, attributes=[])
        with pytest.raises(FBSError):
            bob.unprotect_batch([b"x"], alice.principal, stamps=[])

    def test_result_properties(self):
        result = BatchReceiveResult(
            bodies=[b"a", None, None], reasons=[None, "mac", "mac"]
        )
        assert result.accepted == 1
        assert result.rejected == {"mac": 2}
