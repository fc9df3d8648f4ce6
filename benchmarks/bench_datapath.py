"""Datapath kernel micro-benchmarks -> BENCH_datapath.json.

Times every stage of the per-datagram fast path (DES block kernel, key
schedule, MD5/SHA-1, keyed MAC, CBC over 1 KB, and warm-cache
``protect``/``unprotect`` round trips) and reports each rate next to the
frozen pre-fast-path baseline (see
:data:`repro.bench.datapath.PRE_PR_BASELINE`).

Runs two ways:

* under pytest with the rest of the figure benches
  (``pytest benchmarks/ --benchmark-only``), writing
  ``benchmarks/reports/datapath.txt``;
* as a CLI -- ``python benchmarks/bench_datapath.py [--smoke] [--json
  PATH]`` -- writing ``BENCH_datapath.json`` (the ``make bench-smoke``
  target CI runs).
"""

import argparse
import json
import pathlib
import sys

from repro.bench import (
    render_datapath_report,
    run_datapath_bench,
    write_roundtrip_trace,
)
from repro.crypto.vector import SINGLE_LANE_MIN_BLOCKS

DEFAULT_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_datapath.json"


def check_results(results) -> None:
    """The acceptance gates: kernel speedups and zero warm-cache keying."""
    assert results["speedups"]["des_block_fast_vs_reference"] >= 5.0
    # Batch-of-64 vectorized lanes vs a scalar loop (ISSUE 7).  Present
    # only when numpy is importable -- the datapath falls back to the
    # scalar kernels there, so there is nothing to gate.  CBC *encrypt*
    # is chain-limited (one kernel pass per block step), hence the
    # lower bar.
    if "batch64_keyed_md5_1k_vector_ops_s" in results["stages"]:
        speedups = results["speedups"]
        assert speedups["batch64_keyed_md5_vector_vs_scalar"] >= 5.0, speedups
        assert (
            speedups["batch64_des_cbc_decrypt_vector_vs_scalar"] >= 5.0
        ), speedups
        assert speedups["batch64_des_cbc_vector_vs_scalar"] >= 4.0, speedups
        # One datagram as one lane.  The routing constant must sit at
        # the measured crossover: tests hold it equal to the checked-in
        # figure, and any run must find the lane ahead at twice the
        # constant and the scalar loop ahead at half of it.
        assert speedups["des_cbc_decrypt_1k_lane_vs_scalar"] >= 3.0, speedups
        sweep = results["single_lane_sweep"]
        assert sweep[str(2 * SINGLE_LANE_MIN_BLOCKS)] > 1.0, sweep
        assert sweep[str(SINGLE_LANE_MIN_BLOCKS // 2)] < 1.0, sweep
    assert all(v == 0 for v in results["fast_path_per_datagram"].values()), (
        "warm-cache datagram performed keying work: "
        f"{results['fast_path_per_datagram']}"
    )
    assert all(rate > 0 for rate in results["stages"].values())


def test_datapath_kernels(benchmark, report_writer):
    results = benchmark.pedantic(
        run_datapath_bench, kwargs={"profile": "smoke"}, rounds=1, iterations=1
    )
    report_writer("datapath", render_datapath_report(results))
    check_results(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="sub-second per stage (CI); rates are noisier, checks as strict",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=DEFAULT_JSON,
        metavar="PATH",
        help=f"where to write the JSON results (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also write a JSONL event trace of 64 instrumented round "
        "trips (inspect with 'python -m repro.obs summarize PATH')",
    )
    args = parser.parse_args(argv)
    results = run_datapath_bench(profile="smoke" if args.smoke else "full")
    check_results(results)
    args.json.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(render_datapath_report(results))
    print(f"\nwrote {args.json}")
    if args.trace_out is not None:
        events = write_roundtrip_trace(str(args.trace_out))
        print(f"wrote {events} events to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
