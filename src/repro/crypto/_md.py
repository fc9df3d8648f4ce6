"""The Merkle-Damgard streaming driver MD5 and SHA-1 share.

RFC 1321 and FIPS 180 differ in their compress functions, initial
states and byte order; buffering 64-byte blocks, padding with ``0x80``,
zeros and the 64-bit bit length, and the ``hashlib`` object protocol are
the same construction, stated once here:

* buffered input lives in a ``bytearray`` consumed via an offset, so
  streaming ``update`` calls are linear (the naive ``bytes`` reslice is
  quadratic);
* running state is an immutable tuple, so ``digest`` needs no clone: it
  builds the whole padding tail in one shot and folds it into a state
  copy-on-write.
"""

from __future__ import annotations

__all__ = ["MerkleDamgard"]


class MerkleDamgard:
    """Incremental hash over 64-byte blocks, ``hashlib`` object protocol.

    A subclass names ``_compress(state, block, offset) -> state`` (as a
    ``staticmethod``), ``_initial`` (the initial state tuple) and the
    ``struct.Struct`` layouts ``_state_words`` / ``_length_word`` whose
    byte order is the hash's.
    """

    block_size = 64

    __slots__ = ("_state", "_buffer", "_length")

    def __init__(self, data: bytes = b"") -> None:
        self._state = self._initial
        self._buffer = bytearray()
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb more message bytes."""
        self._length += len(data)
        buffer = self._buffer
        buffer += data
        end = len(buffer)
        if end >= 64:
            compress = self._compress
            state = self._state
            offset = 0
            while offset + 64 <= end:
                state = compress(state, buffer, offset)
                offset += 64
            del buffer[:offset]
            self._state = state

    def digest(self) -> bytes:
        """Return the digest of everything absorbed so far."""
        # One-shot padding: 0x80, zeros to 56 mod 64, then the 64-bit
        # bit length.  The running state is an immutable tuple, so
        # finalizing never mutates (or clones) the live object.
        length = self._length
        tail = (
            bytes(self._buffer)
            + b"\x80"
            + b"\x00" * ((55 - length) % 64)
            + self._length_word.pack((length * 8) & 0xFFFFFFFFFFFFFFFF)
        )
        compress = self._compress
        state = self._state
        for offset in range(0, len(tail), 64):
            state = compress(state, tail, offset)
        return self._state_words.pack(*state)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()

    def copy(self):
        """Return an independent copy of the running state."""
        cls = type(self)
        clone = cls.__new__(cls)
        clone._state = self._state
        clone._buffer = bytearray(self._buffer)
        clone._length = self._length
        return clone
