"""Permuted-domain CBC chaining equals the scalar chain, lane by lane.

``cbc_encrypt_many`` permutes every block once, chains on pre-FP state
and un-permutes once at the end; the hazards are the lanes that fall
out of the active prefix (one-block lanes beside long ones, empty
plaintexts), a key per lane rather than a cycled pool, and the batch
of one.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import modes
from repro.crypto.des import DES
from repro.crypto.vector import cbc_decrypt_many, cbc_encrypt_many

# Mostly sub-block bodies (one padded block), some spanning many.
plaintext = st.one_of(
    st.binary(max_size=7), st.binary(max_size=7), st.binary(max_size=120)
)
lane = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.binary(min_size=8, max_size=8),
    plaintext,
)
_POOL = [DES(bytes([17 * k + 1]) * 8) for k in range(6)]


@given(lanes=st.lists(lane, min_size=1, max_size=70))
@example(lanes=[(0, b"\0" * 8, b"")])
@example(lanes=[(2, b"\xff" * 8, b"exactly8")])
@example(lanes=[(k % 6, bytes([k]) * 8, b"") for k in range(65)])
@example(lanes=[(0, b"iv-iv-iv", b"x" * 100), (1, b"vi-vi-vi", b"")])
@settings(max_examples=60, deadline=None)
def test_encrypt_matches_per_lane_scalar_cbc(lanes):
    ciphers = [_POOL[key] for key, _, _ in lanes]
    ivs = [iv for _, iv, _ in lanes]
    plains = [plain for _, _, plain in lanes]
    wires = cbc_encrypt_many(ciphers, ivs, plains)
    assert wires == [
        modes.encrypt_cbc(cipher, iv, plain)
        for cipher, iv, plain in zip(ciphers, ivs, plains)
    ]
    assert cbc_decrypt_many(ciphers, ivs, wires) == plains
