"""Batch crypto kernels: the lane datapath.

The scalar kernels (:mod:`repro.crypto.des`, :mod:`repro.crypto.md5`)
process one block of one datagram at a time; a ``protect_batch`` /
``unprotect_batch`` call pays the full Python interpreter overhead per
block.  This package runs the same algorithms across **N independent
datagram lanes at once**: every DES SP-table lookup becomes one numpy
gather over all lanes, and every MD5 step a handful of operations over
all lanes on packed Python ints (a 64-bit slot a lane), where one wide
int operation costs less than a numpy call.
Which stage takes lanes at which batch width is the protocol's choice
(:data:`CBC_ENCRYPT_MIN_LANES`).  The per-lane outputs are bit-identical to the
scalar kernels -- the scalar modules stay the differential reference, in
the same pattern as ``des.reference``.  Header encoding is not a lane:
the scalar ``FBSHeader.encode`` loop beat a byte-matrix encoder at every
batch size (EXPERIMENTS.md "Lane crossovers by stage").

numpy is optional at runtime: :data:`HAVE_NUMPY` is ``False`` when the
import fails, the kernel names below then raise, and the protocol layer
(:class:`repro.core.protocol.FBSEndpoint`) silently falls back to the
scalar kernels.  Nothing in ``repro`` outside this package
imports numpy.
"""

#: Blocks from which one CBC body decrypts faster as a single lane of
#: ``cbc_decrypt_many`` (its blocks in parallel) than through scalar
#: ``modes.decrypt_cbc``.  The sweep of record (``tools/crossover.py``,
#: ``make crossovers``) is in EXPERIMENTS.md ("A DES lane round in two
#: calls"): lane rate over scalar rate, median of six runs, 0.99 at 6
#: blocks, 1.13 at 7, 1.31 at 8.
SINGLE_LANE_MIN_BLOCKS = 7

#: Fewest datagrams from which ``protect_batch`` CBC-encrypts as lanes;
#: below it the scalar loop is faster (the same sweep: lanes behind at
#: 3 x 64 B, 256 B and 1 KB, ahead from 4 at all three).  Decrypt and
#: MAC lanes win from two datagrams.
CBC_ENCRYPT_MIN_LANES = 4

try:
    import numpy  # noqa: F401  (probe only; kernels import it directly)
except ImportError:
    HAVE_NUMPY = False
else:
    HAVE_NUMPY = True

if HAVE_NUMPY:
    from repro.crypto.vector.des import cbc_decrypt_many, cbc_encrypt_many
    from repro.crypto.vector.md5 import keyed_md5_many, md5_many
else:

    def _unavailable(*_args, **_kwargs):
        raise RuntimeError(
            "repro.crypto.vector requires numpy; the scalar datapath "
            "(repro.crypto.des / .md5 / .modes) is the fallback"
        )

    cbc_decrypt_many = _unavailable
    cbc_encrypt_many = _unavailable
    keyed_md5_many = _unavailable
    md5_many = _unavailable

__all__ = [
    "HAVE_NUMPY",
    "SINGLE_LANE_MIN_BLOCKS",
    "cbc_decrypt_many",
    "cbc_encrypt_many",
    "keyed_md5_many",
    "md5_many",
]
