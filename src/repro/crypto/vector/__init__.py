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

numpy is a plain dependency of the project (``pyproject.toml``); nothing
in ``repro`` outside this package imports it.
"""

from repro.crypto.vector.des import cbc_decrypt_many, cbc_encrypt_many
from repro.crypto.vector.md5 import keyed_md5_many

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

__all__ = [
    "SINGLE_LANE_MIN_BLOCKS",
    "cbc_decrypt_many",
    "cbc_encrypt_many",
    "keyed_md5_many",
]
