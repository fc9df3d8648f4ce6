"""Microbenchmarks of the crypto substrate (Section 7.2 context).

The paper reports CryptoLib on a Pentium 133: DES-CBC 549 kB/s and MD5
7060 kB/s.  Our reference implementations are pure Python; their
wall-clock speed is *not* used anywhere in the reproduction (the cost
model carries the calibrated rates), but it is reported here for
honesty, alongside the cost-model anchors.
"""

import pytest

from repro.crypto.des import DES
from repro.crypto.mac import hmac_md5, keyed_md5
from repro.crypto.md5 import md5
from repro.crypto.modes import encrypt_cbc
from repro.crypto.sha1 import sha1
from repro.netsim.costmodel import PENTIUM_133

BUFFER = bytes(range(256)) * 32  # 8 KB


def test_des_cbc_throughput(benchmark):
    cipher = DES(b"\x01\x23\x45\x67\x89\xab\xcd\xef")
    iv = b"\x00" * 8
    result = benchmark(encrypt_cbc, cipher, iv, BUFFER)
    assert len(result) == len(BUFFER) + 8


def test_md5_throughput(benchmark):
    digest = benchmark(md5, BUFFER)
    assert len(digest) == 16


def test_sha1_throughput(benchmark):
    digest = benchmark(sha1, BUFFER)
    assert len(digest) == 20


def test_keyed_md5_throughput(benchmark):
    mac = benchmark(keyed_md5, b"k" * 16, BUFFER)
    assert len(mac) == 16


def test_hmac_md5_throughput(benchmark):
    mac = benchmark(hmac_md5, b"k" * 16, BUFFER)
    assert len(mac) == 16


def test_flow_key_derivation(benchmark):
    from repro.core.config import AlgorithmSuite
    from repro.core.keying import KeyDerivation, Principal

    kdf = KeyDerivation(AlgorithmSuite())
    s = Principal.from_name("alice")
    d = Principal.from_name("bob")
    key = benchmark(kdf.flow_key, 12345, b"\x42" * 32, s, d)
    assert len(key) == 16


# OAKLEY1 is the era-appropriate 768-bit group; OAKLEY2 is the one the
# cost budget's first contacts (gw-churn-256) pay for.
@pytest.mark.parametrize("name", ["OAKLEY1", "OAKLEY2"])
def test_dh_master_key_agreement(benchmark, name):
    import random

    from repro.crypto.dh import DHPrivateKey, WELL_KNOWN_GROUPS

    group = WELL_KNOWN_GROUPS[name]
    rng = random.Random(5)
    a = DHPrivateKey.generate(group, rng)
    b = DHPrivateKey.generate(group, rng)
    secret = benchmark(a.agree, b.public)
    assert len(secret) == group.key_bytes


def test_calibration_anchors_documented(benchmark, report_writer):
    from repro.bench import render_table

    rows = benchmark.pedantic(lambda: [
        ("DES-CBC (paper, CryptoLib on P133)", "549 kB/s"),
        ("MD5 (paper, CryptoLib on P133)", "7060 kB/s"),
        ("cost model per-byte DES", f"{PENTIUM_133.per_byte_des * 1e6:.3f} us/B"),
        ("cost model per-byte MD5", f"{PENTIUM_133.per_byte_md5 * 1e6:.4f} us/B"),
        ("cost model per-packet (generic)", f"{PENTIUM_133.per_packet * 1e6:.0f} us"),
        ("cost model modexp (master key)", f"{PENTIUM_133.modexp * 1e3:.0f} ms"),
    ], rounds=1, iterations=1)
    report_writer(
        "crypto_calibration",
        "Cost model calibration anchors\n" + render_table(["quantity", "value"], rows),
    )
