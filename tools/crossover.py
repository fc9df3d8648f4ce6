"""Lane against scalar, per stage and width: the sweep behind the lane
thresholds the protocol routes on.

Usage: ``python tools/crossover.py`` from the repository root (``make
crossovers``); ``--help`` lists the widths, sizes and repeat count.

Each cell calls a stage's scalar loop and its lane kernel directly, on
the same inputs, asserted equal first: ``n`` flows with their own keys,
random bodies, the MAC input ``confounder | timestamp | body`` as
``protect_batch`` builds it.  Scalar and lane windows alternate (the
side that runs first alternating too), each as many calls as fit
``--window-ms``, and a side keeps its best window of ``--repeat``.  It
prints the two tables of EXPERIMENTS.md:

* **Single-lane crossover** -- one CBC body decrypted by scalar
  ``modes.decrypt_cbc`` and as one lane of ``cbc_decrypt_many``, as
  lane rate over scalar rate per block count
  (``SINGLE_LANE_MIN_BLOCKS``);
* **Lane crossovers by stage** -- keyed-MD5, CBC encrypt and CBC
  decrypt of ``n`` datagrams, microseconds per batch, the faster kernel
  in bold (``CBC_ENCRYPT_MIN_LANES``; ``n >= 2`` for the MAC and decrypt
  stages).

Under each, the fewest blocks or lanes from which the lane is never
slower again (within the widths swept), beside the protocol's constant.
A third table, **DES lane pass**, times the kernel under both CBC
drivers: microseconds per sixteen-round pass at the widths of
``PASS_WIDTHS``.  A fourth, **DES lane IP + FP by form**, times the
permutations around those rounds in both forms, byte-table gathers and
delta-swap networks, at the widths of ``FORM_WIDTHS``, with the fewest
blocks from which the network is never slower again beside
``_NETWORK_MIN_BLOCKS``.
The figures are this host's; compare rows inside one run.
"""

import argparse
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.clocks import wall_seconds  # noqa: E402
from repro.core.config import AlgorithmSuite  # noqa: E402
from repro.core.keying import FlowCryptoState  # noqa: E402
from repro.crypto import modes, vector  # noqa: E402
from repro.crypto.des import DES  # noqa: E402
from repro.crypto.vector import des as lane_des  # noqa: E402

#: Each stage's lane threshold in ``FBSEndpoint``: its name there, its value.
THRESHOLDS = {
    "keyed-MD5": ("n >= 2", 2),
    "CBC encrypt": ("CBC_ENCRYPT_MIN_LANES", vector.CBC_ENCRYPT_MIN_LANES),
    "CBC decrypt": ("n >= 2", 2),
}

#: The pass table's widths: one lane, a small batch, a replay batch's
#: 64 lanes, the blocks of one 1,460 B body, and flattened decrypts.
PASS_WIDTHS = [1, 8, 64, 183, 1024, 11712]

#: The form table's widths: one 512 B body's 65 blocks, the scratch
#: cache's bound, either side of the form boundary, and a replay batch.
FORM_WIDTHS = [65, 256, 512, 768, 1024, 1536, 2048, 11712]


def _seconds_per_call(call, calls):
    start = wall_seconds()
    for _ in range(calls):
        call()
    return (wall_seconds() - start) / calls


def race(scalar, lane, repeat, window_s):
    """Best seconds a call of each side, windows alternating."""
    sides = (scalar, lane)
    calls = [max(1, int(window_s / _seconds_per_call(side, 1))) for side in sides]
    best = [float("inf")] * 2
    for round_no in range(repeat):
        for side in (0, 1) if round_no % 2 == 0 else (1, 0):
            best[side] = min(best[side], _seconds_per_call(sides[side], calls[side]))
    return best


def stage_calls(stage, n, size, rng):
    """``(scalar, lane)`` zero-argument calls for ``n`` datagrams of
    ``size`` body bytes, checked to give the same outputs."""
    keys = [rng.randbytes(16) for _ in range(n)]
    bodies = [rng.randbytes(size) for _ in range(n)]
    if stage == "keyed-MD5":
        suite = AlgorithmSuite()
        states = [FlowCryptoState(key, suite) for key in keys]
        data = [rng.randbytes(12) + body for body in bodies]

        def scalar():
            return [state.mac(item) for state, item in zip(states, data)]

        def lane():
            macs = vector.keyed_md5_many([state.mac_key for state in states], data)
            return [mac[: suite.mac_bytes] for mac in macs]

    else:
        ciphers = [DES(key[:8]) for key in keys]
        ivs = [rng.randbytes(8) for _ in range(n)]
        if stage == "CBC decrypt":
            bodies = [modes.encrypt_cbc(c, iv, b) for c, iv, b in zip(ciphers, ivs, bodies)]
            scalar_one, lane_many = modes.decrypt_cbc, vector.cbc_decrypt_many
        else:
            scalar_one, lane_many = modes.encrypt_cbc, vector.cbc_encrypt_many

        def scalar():
            return [scalar_one(c, iv, b) for c, iv, b in zip(ciphers, ivs, bodies)]

        def lane():
            return lane_many(ciphers, ivs, bodies)

    if scalar() != lane():
        raise AssertionError(f"{stage} lanes disagree with the scalar loop")
    return scalar, lane


def crossover(widths, lane_wins):
    """The smallest width from which the lane never loses again, or None."""
    found = None
    for width, wins in reversed(list(zip(widths, lane_wins))):
        if not wins:
            break
        found = width
    return found


def _row(cells):
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def _us_cells(timed, side):
    """One side of ``race`` pairs in microseconds, bold where it is the
    faster."""
    cells = []
    for pair in timed:
        us = f"{pair[side] * 1e6:,.0f}"
        cells.append(f"**{us}**" if pair[side] <= pair[1 - side] else us)
    return cells


def single_lane_calls(cipher, iv, body):
    def scalar():
        return modes.decrypt_cbc(cipher, iv, body)

    def lane():
        return vector.cbc_decrypt_many((cipher,), (iv,), (body,))[0]

    if scalar() != lane():
        raise AssertionError("single-lane decrypt disagrees with the scalar loop")
    return scalar, lane


def single_lane_table(blocks, repeat, window_s, rng):
    cipher = DES(rng.randbytes(8))
    iv = rng.randbytes(8)
    ratios = []
    for count in blocks:
        # A padded body of exactly ``count`` blocks.
        body = modes.encrypt_cbc(cipher, iv, rng.randbytes(8 * count - 1))
        scalar, lane = single_lane_calls(cipher, iv, body)
        scalar_s, lane_s = race(scalar, lane, repeat, window_s)
        ratios.append(scalar_s / lane_s)
    lines = ["Single-lane crossover (lane rate / scalar rate, one CBC decrypt):", ""]
    lines.append(_row(["blocks"] + list(blocks)))
    lines.append(_row(["---"] * (len(blocks) + 1)))
    lines.append(_row(["lane / scalar"] + [f"{ratio:.3f}" for ratio in ratios]))
    found = crossover(blocks, [ratio >= 1.0 for ratio in ratios])
    lines.append("")
    lines.append(
        f"crossover: {found} blocks (SINGLE_LANE_MIN_BLOCKS = "
        f"{vector.SINGLE_LANE_MIN_BLOCKS})"
    )
    return lines


def stage_table(stages, lanes, sizes, repeat, window_s, rng):
    lines = ["Lane crossovers by stage (us per batch, the faster in bold):", ""]
    lines.append(_row(["stage", "body", "kernel"] + [f"n={n}" for n in lanes]))
    lines.append(_row(["---"] * (len(lanes) + 3)))
    notes = []
    for stage in stages:
        for size in sizes:
            timed = [race(*stage_calls(stage, n, size, rng), repeat, window_s) for n in lanes]
            for side, kernel in enumerate(("scalar", "lane")):
                lines.append(_row([stage, f"{size} B", kernel] + _us_cells(timed, side)))
            found = crossover(lanes, [lane <= scalar for scalar, lane in timed])
            name, value = THRESHOLDS[stage]
            notes.append(f"{stage} {size} B: crossover n = {found} ({name}: {value})")
    return lines + [""] + notes


def pass_table(widths, repeat, window_s):
    """Microseconds per sixteen-round pass of the DES lane kernel, a
    width's best window: the rounds alone, IP and FP being the form
    table's and the chaining neither's."""
    us = []
    for width in widths:
        lanes = lane_des._lanes(width)
        lanes.words[:] = 0

        def one_pass(plan=lanes.plan):
            lane_des._rounds(plan)

        calls = max(1, int(window_s / _seconds_per_call(one_pass, 1)))
        us.append(min(_seconds_per_call(one_pass, calls) for _ in range(repeat)) * 1e6)
    lines = [
        "DES lane pass (us per sixteen rounds, two numpy calls a round as "
        "test_a_round_is_two_numpy_calls pins, by width):",
        "",
    ]
    lines.append(_row(["width"] + list(widths)))
    lines.append(_row(["---"] * (len(widths) + 1)))
    lines.append(_row(["us per pass"] + [f"{cell:,.1f}" for cell in us]))
    lines.append(_row(["ns per block-round"] + [
        f"{cell * 1000 / 16 / width:,.2f}" for cell, width in zip(us, widths)
    ]))  # fmt: skip
    return lines


def form_calls(width, rng):
    """``(gather, network)`` zero-argument IP + FP calls over ``width``
    random blocks and states, checked to give the same outputs."""
    blocks = np.frombuffer(rng.randbytes(8 * width), dtype=">u8")
    states = np.frombuffer(rng.randbytes(16 * width), dtype=np.uint64).reshape(2, width)
    halves = np.empty((2, width), dtype=np.uint64)
    calls = []
    for ip, fp in ((lane_des._ip_gather, lane_des._fp_gather),
                   (lane_des._ip_network, lane_des._fp_network)):  # fmt: skip

        def both(ip=ip, fp=fp):
            ip(blocks, halves)
            return halves.copy(), fp(states)

        calls.append(both)
    (ip_gather, fp_gather), (ip_network, fp_network) = (call() for call in calls)
    if not ((ip_gather == ip_network).all() and (fp_gather == fp_network).all()):
        raise AssertionError(f"IP/FP forms disagree at {width} blocks")
    return calls


def form_table(widths, repeat, window_s, rng):
    timed = [race(*form_calls(width, rng), repeat, window_s) for width in widths]
    lines = ["DES lane IP + FP by form (us per IP and FP, the faster in bold):", ""]
    lines.append(_row(["form"] + list(widths)))
    lines.append(_row(["---"] * (len(widths) + 1)))
    for side, form in enumerate(("gather", "network")):
        lines.append(_row([form] + _us_cells(timed, side)))
    found = crossover(widths, [network <= gather for gather, network in timed])
    lines.append("")
    lines.append(
        f"IP + FP crossover: {found} blocks (_NETWORK_MIN_BLOCKS = "
        f"{lane_des._NETWORK_MIN_BLOCKS})"
    )
    return lines


def _widths(text):
    return [int(item) for item in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=_widths, default=list(range(1, 25)),
                        help="single-lane block counts (default 1..24)")
    parser.add_argument("--lanes", type=_widths, default=[2, 4, 6, 8, 10, 12, 16, 64])
    parser.add_argument("--sizes", type=_widths, default=[64, 256, 1024],
                        help="body bytes per datagram in the stage table")
    parser.add_argument("--stages", default=",".join(THRESHOLDS))
    parser.add_argument("--repeat", type=int, default=9, help="windows a side")
    parser.add_argument("--window-ms", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    stages = args.stages.split(",")
    unknown = set(stages) - set(THRESHOLDS)
    if unknown or args.repeat < 1 or args.window_ms <= 0:
        parser.error(f"bad stage, repeat or window: {sorted(unknown)}")
    rng = random.Random(args.seed)
    window_s = args.window_ms / 1000
    lines = single_lane_table(args.blocks, args.repeat, window_s, rng)
    lines += [""] + stage_table(stages, args.lanes, args.sizes, args.repeat, window_s, rng)
    lines += [""] + pass_table(PASS_WIDTHS, args.repeat, window_s)
    lines += [""] + form_table(FORM_WIDTHS, args.repeat, window_s, rng)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
