"""Key material as a value that cannot be rendered, compared or converted.

The paper's security argument (Sections 5.2 and 6.1) rests on
``K_{S,D}`` and ``K_f`` staying secret: "breaking a flow key does not
help in recovering the master key nor compromising other flow keys"
holds only while no key reaches a log, a report or a variable-time
compare.  Every key producer returns a :class:`Secret`, so that is a
property of the value rather than of a search over the program:

* ``repr``, ``str`` and ``format`` (so ``print``, f-strings and logging)
  render ``<secret>``;
* ``==``, ``!=``, ``hash``, ``bytes``, iteration, ``int``/``index``,
  integer indexing, pickling and copying raise :class:`TypeError`, and
  with no buffer interface neither ``memoryview``, ``int.from_bytes``
  nor ``numpy.frombuffer`` can read it;
* a slice is another :class:`Secret` (the DES key is ``K_f[:8]``).

:meth:`Secret.reveal` is the one way back to bytes, and
``tests/test_key_secrecy_structure.py`` allows it in the raw-key zone
only: :mod:`repro.crypto`, :mod:`repro.core.keying` and the adversary's
:mod:`repro.attacks`.  :func:`reveal` is the coercion the primitives
take their key through, so a caller may hand them a :class:`Secret` or
plain bytes; :func:`derive_key` is the one hash-based key derivation.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.crypto.md5 import md5

__all__ = ["Secret", "Key", "derive_key", "reveal"]


def _refuse(what: str):
    def refused(self, *args):
        raise TypeError(f"key material is not {what}; only the crypto layer may reveal() it")

    return refused


class Secret:
    """Key bytes that render as ``<secret>`` and refuse every conversion."""

    __slots__ = ("__key",)

    def __init__(self, key: bytes) -> None:
        if type(key) is not bytes:
            raise TypeError(f"a Secret holds bytes, not {type(key).__name__}")
        self.__key = key

    def reveal(self) -> bytes:
        """The key bytes, for a cipher or MAC to consume."""
        return self.__key

    def __len__(self) -> int:
        return len(self.__key)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            raise TypeError("key material is not indexable, only sliceable")
        return Secret(self.__key[index])

    def __repr__(self) -> str:
        return "<secret>"

    __str__ = __repr__

    def __format__(self, spec: str) -> str:
        return "<secret>"

    __eq__ = __ne__ = _refuse("comparable")
    __hash__ = _refuse("hashable")
    __bytes__ = _refuse("convertible to bytes")
    __iter__ = _refuse("iterable")
    __int__ = __index__ = _refuse("convertible to int")
    __reduce__ = __reduce_ex__ = _refuse("picklable or copyable")


#: What a primitive accepts as a key.
Key = Union[Secret, bytes]


def reveal(key: Key) -> bytes:
    """The bytes of ``key``, a :class:`Secret` or plain bytes."""
    return key.reveal() if isinstance(key, Secret) else key


def derive_key(*parts: Key, hash: Callable[[bytes], bytes] = md5) -> Secret:
    """``hash(part_0 | part_1 | ...)`` as a :class:`Secret`: the one
    hash-based derivation (K_f, SKIP's ``K_ijn``, Photuris' session key)."""
    return Secret(hash(b"".join(map(reveal, parts))))
