"""Datapath kernel micro-benchmarks (the BENCH_datapath.json stages).

Section 5.3's claim -- "with proper caching, the overhead of the FBS
protocol can be reduced to the bare minimum, i.e., only MAC computation
and encryption" -- makes the crypto kernels *the* datapath cost.  This
module times each stage of that path in isolation and end to end:

* the DES fast kernel (``repro.crypto.des``) against the FIPS 46
  specification implementation (``repro.crypto.des_reference``),
* the DES key schedule (what a flow-key cache miss pays),
* the MD5/SHA-1 compress kernels and the prefix-keyed MAC,
* DES-CBC over datagram-sized buffers,
* batch-of-64 lanes through the vectorized kernels
  (``repro.crypto.vector``) against a scalar loop over the same 64
  datagrams -- 8 distinct flows cycle across the lanes so the vector
  path pays its per-key subkey gathers,
* one datagram's CBC decrypt as a single lane (its blocks in parallel)
  against the scalar block loop, and the block count from which the
  lane wins -- the crossover ``FBSEndpoint.unprotect`` routes on, and
* full ``protect``/``unprotect`` round trips through two
  :class:`~repro.core.protocol.FBSEndpoint` instances, with the Figure 6
  caches warm -- plus an explicit check that a warm-cache datagram
  performs **zero** key derivations, zero crypto-state builds, and zero
  DES key-schedule constructions.

``PRE_PR_BASELINE`` freezes the numbers the same stages measured on the
pre-fast-path kernels (bit-at-a-time-free but byte-oriented DES, rolled
MD5/SHA-1 loops, per-datagram key derivation + schedule build), so
``run_datapath_bench`` can report before/after deltas without checking
out old code.  Absolute rates move with the host; the *ratios* are the
reproducible part, and the live fast-vs-reference DES ratio is measured
fresh on every run.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

__all__ = [
    "PRE_PR_BASELINE",
    "run_datapath_bench",
    "render_datapath_report",
    "write_roundtrip_trace",
]


#: Stage rates measured at the pre-PR commit (seed kernels) on the same
#: harness loops as below.  Units: ``*_ops_s`` are operations/second,
#: ``*_Bps`` bytes/second.  Round-trip stages alternate one ``protect``
#: and one ``unprotect`` between two warm endpoints.
PRE_PR_BASELINE: Dict[str, float] = {
    "des_block_ops_s": 39405.5,
    "des_schedule_ops_s": 40531.8,
    "md5_1k_ops_s": 1480.4,
    "keyed_md5_1k_ops_s": 1510.6,
    "des_cbc_1k_Bps": 251314.0,
    "roundtrip_secret_64B_ops_s": 1289.15,
    "roundtrip_secret_256B_ops_s": 417.00,
    "roundtrip_secret_1024B_ops_s": 114.59,
    "roundtrip_mac_only_1024B_ops_s": 733.21,
}


def _window(fn: Callable[[], object], min_time: float) -> float:
    """One ``min_time`` timing window: calls/second of ``fn``."""
    calls = 0
    batch = 1
    start = time.perf_counter()
    deadline = start + min_time
    while True:
        for _ in range(batch):
            fn()
        calls += batch
        now = time.perf_counter()
        if now >= deadline:
            break
        batch = min(batch * 2, 4096)
    return calls / (now - start)


def _rate(fn: Callable[[], object], min_time: float, repeats: int = 3) -> float:
    """Best-of-``repeats`` calls/second of ``fn``, ``min_time`` each.

    Interference (scheduler preemption, host steal time) only ever
    *slows* a measurement, so the fastest repetition is the least-noisy
    estimate of the kernel's true rate -- the same reasoning behind
    taking ``min(timeit.repeat(...))``.
    """
    fn()  # warm caches and lazy imports outside the timed region
    return max(_window(fn, min_time) for _ in range(repeats))


def _paired_rates(
    base_fn: Callable[[], object],
    fast_fn: Callable[[], object],
    min_time: float,
    repeats: int = 3,
) -> tuple:
    """Best-of rates for two kernels from *interleaved* windows.

    The gated numbers downstream are the fast/base *ratios*, and host
    interference (steal time, frequency throttling) comes in bursts
    that can last longer than one stage's whole measurement.  Timing
    the two sides back to back inside each repetition means a burst
    degrades both or neither, so the ratio survives even when the
    absolute rates do not.
    """
    base_fn()  # warm caches and lazy imports outside the timed region
    fast_fn()
    base = fast = 0.0
    for _ in range(repeats):
        base = max(base, _window(base_fn, min_time))
        fast = max(fast, _window(fast_fn, min_time))
    return base, fast


#: Block counts swept for the single-lane crossover; it must sit well
#: inside, so the gates can look a factor of two to either side of it.
_CROSSOVER_SWEEP = range(1, 25)


def _single_lane_sweep(cipher, iv: bytes, min_time: float) -> Dict[int, float]:
    """Lane/scalar rate ratio of one CBC body's decrypt, per block count."""
    from repro.crypto import vector
    from repro.crypto.modes import decrypt_cbc, encrypt_cbc

    ratios = {}
    for blocks in _CROSSOVER_SWEEP:
        wire = encrypt_cbc(cipher, iv, b"\x6b" * (8 * blocks - 1))
        scalar, lane = _paired_rates(
            lambda: decrypt_cbc(cipher, iv, wire),
            lambda: vector.cbc_decrypt_many((cipher,), (iv,), (wire,)),
            min_time,
        )
        ratios[blocks] = lane / scalar
    return ratios


def _crossover(ratios: Dict[int, float]) -> int:
    """Fewest blocks from which the lane is never slower again."""
    crossover = max(ratios) + 1
    for blocks in sorted(ratios, reverse=True):
        if ratios[blocks] < 1.0:
            break
        crossover = blocks
    return crossover


def _endpoint_pair():
    """Two enrolled endpoints sharing a domain (the test-suite idiom)."""
    from repro.core.deploy import FBSDomain
    from repro.core.keying import Principal

    domain = FBSDomain(seed=7)
    alice = domain.make_endpoint(Principal.from_name("bench-alice"))
    bob = domain.make_endpoint(Principal.from_name("bench-bob"))
    return alice, bob


def _fast_path_deltas() -> Dict[str, int]:
    """Per-datagram keying work with warm caches (must all be zero)."""
    from repro.crypto.des import DES

    alice, bob = _endpoint_pair()
    body = b"\xa5" * 256
    # Warm every cache level: FST, TFKC/RFKC (crypto state included).
    for _ in range(3):
        bob.unprotect(alice.protect(body, bob.principal, secret=True),
                      alice.principal, secret=True)

    def keying_work():
        return (
            alice.registry.counter("flow_key_derivations", side="send").value
            + bob.registry.counter("flow_key_derivations", side="receive").value,
            alice.registry.counter("crypto_state_builds").value
            + bob.registry.counter("crypto_state_builds").value,
            DES.schedule_builds,
        )

    before = keying_work()
    bob.unprotect(alice.protect(body, bob.principal, secret=True),
                  alice.principal, secret=True)
    after = keying_work()
    return {
        "flow_key_derivations": after[0] - before[0],
        "crypto_state_builds": after[1] - before[1],
        "des_schedule_builds": after[2] - before[2],
    }


def write_roundtrip_trace(destination, datagrams: int = 64) -> int:
    """Drive ``datagrams`` round trips through a *traced* endpoint pair.

    Writes the full event stream (flow start, key derivations, cache
    hits/misses, protected/accepted datagrams) as JSONL to
    ``destination`` -- a path or an open text file -- and returns the
    number of events written.  ``python -m repro.obs summarize`` on the
    output shows the warm-path story behind the round-trip stage rates:
    keying events only at the front, cache hits thereafter.
    """
    from repro.core.deploy import FBSDomain
    from repro.core.keying import Principal
    from repro.obs import JsonlSink, Tracer

    clock = [0.0]
    with JsonlSink(destination) as sink:
        tracer = Tracer(sink, now=lambda: clock[0])
        domain = FBSDomain(seed=7)
        alice = domain.make_endpoint(
            Principal.from_name("bench-alice"), tracer=tracer
        )
        bob = domain.make_endpoint(
            Principal.from_name("bench-bob"), tracer=tracer
        )
        for i in range(datagrams):
            clock[0] = i * 1e-3
            secret = bool(i % 2)
            body = bytes([i & 0xFF]) * 256
            wire = alice.protect(body, bob.principal, secret=secret)
            bob.unprotect(wire, alice.principal, secret=secret)
        return sink.events_written


def run_datapath_bench(profile: str = "full") -> Dict[str, object]:
    """Run every stage; return a JSON-serializable result dictionary.

    ``profile`` is ``"full"`` (default, ~15 s) or ``"smoke"`` (sub-second
    per stage, for CI -- rates are noisier but the ratios and the
    zero-work fast-path check are as strict).
    """
    from repro.core.keying import KeyDerivation
    from repro.crypto import des_reference
    from repro.crypto.des import DES
    from repro.crypto.mac import keyed_md5
    from repro.crypto.md5 import md5
    from repro.crypto.modes import decrypt_cbc, encrypt_cbc
    from repro.crypto.sha1 import sha1

    if profile not in ("full", "smoke"):
        raise ValueError(f"unknown profile {profile!r}")
    min_time = 0.5 if profile == "full" else 0.05

    key = b"\x13\x34\x57\x79\x9b\xbc\xdf\xf1"
    cipher = DES(key)
    ref_cipher = des_reference.DES(key)
    block_int = 0x0123456789ABCDEF
    block = block_int.to_bytes(8, "big")
    kilobyte = bytes(range(256)) * 4
    iv = b"\x00\x11\x22\x33\x44\x55\x66\x77"
    mac_key = KeyDerivation.mac_key(b"\x5a" * 16)
    cbc_ciphertext = encrypt_cbc(cipher, iv, kilobyte)

    stages: Dict[str, float] = {}
    stages["des_block_ops_s"] = _rate(
        lambda: cipher.encrypt_int(block_int), min_time
    )
    stages["des_block_reference_ops_s"] = _rate(
        lambda: ref_cipher.encrypt_block(block), min_time
    )
    stages["des_schedule_ops_s"] = _rate(lambda: DES(key), min_time)
    stages["md5_1k_ops_s"] = _rate(lambda: md5(kilobyte), min_time)
    stages["sha1_1k_ops_s"] = _rate(lambda: sha1(kilobyte), min_time)
    stages["keyed_md5_1k_ops_s"] = _rate(
        lambda: keyed_md5(mac_key, kilobyte), min_time
    )
    stages["des_cbc_1k_Bps"] = len(kilobyte) * _rate(
        lambda: encrypt_cbc(cipher, iv, kilobyte), min_time
    )
    stages["des_cbc_decrypt_1k_Bps"] = len(kilobyte) * _rate(
        lambda: decrypt_cbc(cipher, iv, cbc_ciphertext), min_time
    )

    # Batch-of-64: vectorized lane kernels vs a scalar loop over the
    # same datagrams.  One "op" is the whole 64-lane batch.  8 distinct
    # flows (DES keys + MAC keys) cycle across the lanes so the vector
    # path pays its per-key subkey/prefix gathers, matching a mixed-flow
    # receive batch.  Stages are skipped (and the gates with them) when
    # numpy is absent -- the datapath itself falls back to scalar there.
    from repro.crypto import vector

    single_lane: Dict[str, object] = {}
    if vector.HAVE_NUMPY:
        lanes = 64
        bodies = [
            bytes((i + j) & 0xFF for j in range(1024)) for i in range(lanes)
        ]
        lane_keys = [
            bytes(((37 * k + j) | 1) & 0xFF for j in range(8))
            for k in range(8)
        ]
        flow_ciphers = [DES(k) for k in lane_keys]
        lane_ciphers = [flow_ciphers[i % 8] for i in range(lanes)]
        flow_mac_keys = [
            KeyDerivation.mac_key(bytes([0x10 + k]) * 16) for k in range(8)
        ]
        lane_mac_keys = [flow_mac_keys[i % 8] for i in range(lanes)]
        ivs = [bytes([i]) * 8 for i in range(lanes)]
        lane_ct = vector.cbc_encrypt_many(lane_ciphers, ivs, bodies)

        (
            stages["batch64_keyed_md5_1k_scalar_ops_s"],
            stages["batch64_keyed_md5_1k_vector_ops_s"],
        ) = _paired_rates(
            lambda: [keyed_md5(k, b) for k, b in zip(lane_mac_keys, bodies)],
            lambda: vector.keyed_md5_many(lane_mac_keys, bodies),
            min_time,
        )
        (
            stages["batch64_des_cbc_1k_scalar_ops_s"],
            stages["batch64_des_cbc_1k_vector_ops_s"],
        ) = _paired_rates(
            lambda: [
                encrypt_cbc(c, v, b)
                for c, v, b in zip(lane_ciphers, ivs, bodies)
            ],
            lambda: vector.cbc_encrypt_many(lane_ciphers, ivs, bodies),
            min_time,
        )
        (
            stages["batch64_des_cbc_decrypt_1k_scalar_ops_s"],
            stages["batch64_des_cbc_decrypt_1k_vector_ops_s"],
        ) = _paired_rates(
            lambda: [
                decrypt_cbc(c, v, ct)
                for c, v, ct in zip(lane_ciphers, ivs, lane_ct)
            ],
            lambda: vector.cbc_decrypt_many(lane_ciphers, ivs, lane_ct),
            min_time,
        )
        # One datagram, its blocks as the lanes: what scalar unprotect()
        # does with a secret body above the crossover.
        (
            stages["des_cbc_decrypt_1k_scalar_ops_s"],
            stages["des_cbc_decrypt_1k_lane_ops_s"],
        ) = _paired_rates(
            lambda: decrypt_cbc(cipher, iv, cbc_ciphertext),
            lambda: vector.cbc_decrypt_many(
                (cipher,), (iv,), (cbc_ciphertext,)
            ),
            min_time,
        )
        sweep = _single_lane_sweep(cipher, iv, min_time / 5)
        single_lane = {
            "single_lane_sweep": {str(b): ratio for b, ratio in sweep.items()},
            "single_lane_crossover_blocks": _crossover(sweep),
        }

    # End-to-end round trips: one protect + one unprotect per op, caches
    # warm, alternating directions of work between the two endpoints.
    # These are the headline numbers, so give them double the window.
    rt_time = 2 * min_time
    roundtrip_sizes = (64, 256, 1024) if profile == "full" else (256,)
    for size in roundtrip_sizes:
        alice, bob = _endpoint_pair()
        body = b"\xc3" * size

        def secret_roundtrip(alice=alice, bob=bob, body=body):
            wire = alice.protect(body, bob.principal, secret=True)
            return bob.unprotect(wire, alice.principal, secret=True)

        stages[f"roundtrip_secret_{size}B_ops_s"] = _rate(
            secret_roundtrip, rt_time
        )
    mac_sizes = (1024,) if profile == "full" else ()
    for size in mac_sizes:
        alice, bob = _endpoint_pair()
        body = b"\x3c" * size

        def mac_roundtrip(alice=alice, bob=bob, body=body):
            wire = alice.protect(body, bob.principal, secret=False)
            return bob.unprotect(wire, alice.principal, secret=False)

        stages[f"roundtrip_mac_only_{size}B_ops_s"] = _rate(
            mac_roundtrip, rt_time
        )

    speedups: Dict[str, float] = {
        "des_block_fast_vs_reference": (
            stages["des_block_ops_s"] / stages["des_block_reference_ops_s"]
        )
    }
    for name, before in PRE_PR_BASELINE.items():
        if name in stages:
            speedups[f"{name}_vs_pre_pr"] = stages[name] / before
    # Vector-vs-scalar-loop ratios for the batch stages, all gated by
    # benchmarks/bench_datapath.py: decrypt and MAC >= 5x; CBC *encrypt*
    # is chain-limited (block i needs ciphertext i-1, so only the lane
    # dimension vectorizes) and gated >= 4x.
    for pair in ("keyed_md5", "des_cbc", "des_cbc_decrypt"):
        scalar = stages.get(f"batch64_{pair}_1k_scalar_ops_s")
        vectored = stages.get(f"batch64_{pair}_1k_vector_ops_s")
        if scalar and vectored:
            speedups[f"batch64_{pair}_vector_vs_scalar"] = vectored / scalar

    scalar = stages.get("des_cbc_decrypt_1k_scalar_ops_s")
    if scalar:
        speedups["des_cbc_decrypt_1k_lane_vs_scalar"] = (
            stages["des_cbc_decrypt_1k_lane_ops_s"] / scalar
        )

    return {
        "profile": profile,
        "stages": stages,
        "pre_pr_baseline": dict(PRE_PR_BASELINE),
        "speedups": speedups,
        "fast_path_per_datagram": _fast_path_deltas(),
        **single_lane,
    }


def render_datapath_report(results: Dict[str, object]) -> str:
    """The human-readable table written to benchmarks/reports/."""
    from repro.bench.reporting import render_table

    stages = results["stages"]
    speedups = results["speedups"]
    rows = []
    for name, value in stages.items():
        vs_pre = speedups.get(f"{name}_vs_pre_pr")
        rows.append(
            (
                name,
                f"{value:,.1f}",
                f"x{vs_pre:.2f}" if vs_pre is not None else "-",
            )
        )
    lines = [
        f"Datapath kernels ({results['profile']} profile)",
        render_table(["stage", "rate", "vs pre-PR"], rows),
        "",
        "DES fast kernel vs FIPS 46 reference: "
        f"x{speedups['des_block_fast_vs_reference']:.1f}",
    ]
    batch = {
        name: value
        for name, value in speedups.items()
        if name.endswith("_vector_vs_scalar")
    }
    if batch:
        lines.append(
            "Batch-of-64 vector vs scalar loop: "
            + ", ".join(f"{k}=x{v:.2f}" for k, v in sorted(batch.items()))
        )
    if "single_lane_crossover_blocks" in results:
        lines.append(
            "One datagram as one lane, 1 KB CBC decrypt vs scalar: "
            f"x{speedups['des_cbc_decrypt_1k_lane_vs_scalar']:.2f}; "
            f"crossover {results['single_lane_crossover_blocks']} blocks"
        )
    lines += [
        "Warm-cache per-datagram keying work (must be all zero): "
        + ", ".join(
            f"{k}={v}" for k, v in results["fast_path_per_datagram"].items()
        ),
    ]
    return "\n".join(lines)
