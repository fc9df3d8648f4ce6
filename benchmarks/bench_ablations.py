"""Ablations of the design choices DESIGN.md calls out.

1. Cache index hash (Section 5.3): CRC-32 vs modulo vs XOR-fold on the
   TFKC -- "the hash function for these caches must randomize the
   input"; modulo collapses under correlated inputs.
2. Single-pass crypto integration (Section 5.3): the throughput cost of
   *not* folding DES/MD5 into the copy/checksum pass.
3. Per-flow vs per-datagram keying (Sections 2.2, 7.4): key derivations
   per datagram under the 5-tuple policy vs the degenerate
   one-flow-per-datagram policy.
4. Statistical vs cryptographic confounders (Sections 2.2, 5.3): LCG vs
   Blum-Blum-Shub generation cost (wall time of the reference
   implementations).
5. Combined FST/TFKC threshold check (Section 7.2) vs the split
   mapper + sweeper design (Section 5.1): same flows, different
   bookkeeping cost.
"""

import time

from repro.bench import measure_udp_throughput, render_table
from repro.crypto.crc import Crc32Hash, ModuloHash, XorFoldHash
from repro.crypto.random import BlumBlumShub, LinearCongruential
from repro.netsim.addresses import IPAddress
from repro.netsim.costmodel import PENTIUM_133
from repro.traces.flowsim import CacheSimulator

FILE_SERVER = IPAddress("10.1.0.250")


def run_hash_ablation(trace, cache_size=32):
    rows = []
    for strategy in (Crc32Hash(), ModuloHash(), XorFoldHash()):
        stats = CacheSimulator(
            cache_size, threshold=600.0, index_hash=strategy
        ).send_side(trace, FILE_SERVER)
        rows.append(
            (
                strategy.name,
                f"{stats.miss_rate * 100:.3f}%",
                stats.collision_misses,
                stats.capacity_misses,
            )
        )
    return rows


def test_cache_index_hash_ablation(benchmark, lan_trace, report_writer):
    rows = benchmark.pedantic(
        run_hash_ablation, args=(lan_trace,), rounds=1, iterations=1
    )
    table = render_table(
        ["index hash", "miss rate (32 entries)", "collision misses", "capacity misses"],
        rows,
    )
    report_writer("ablation_cache_hash", "Ablation: cache index hash\n" + table)
    by_name = {row[0]: row[2] for row in rows}
    # CRC-32 yields no more collisions than the simple hashes.
    assert by_name["crc32"] <= by_name["modulo"]
    assert by_name["crc32"] <= by_name["xor"]


def run_integration_ablation():
    integrated = measure_udp_throughput(
        "fbs-des-md5", total_bytes=250_000, cost_model=PENTIUM_133
    )
    separate = measure_udp_throughput(
        "fbs-des-md5",
        total_bytes=250_000,
        cost_model=PENTIUM_133.with_(integrated_crypto=False),
    )
    return integrated.kbps, separate.kbps


def test_single_pass_integration_ablation(benchmark, report_writer):
    integrated, separate = benchmark.pedantic(
        run_integration_ablation, rounds=1, iterations=1
    )
    table = render_table(
        ["crypto integration", "ttcp kb/s"],
        [
            ("single pass (Sec 5.3 optimization)", f"{integrated:.0f}"),
            ("separate passes", f"{separate:.0f}"),
        ],
    )
    report_writer(
        "ablation_integration",
        "Ablation: crypto pass integration with data touching\n" + table,
    )
    assert integrated > separate
    # "The extent of the penalty is mostly a function of the quality of
    # the crypto implementation and how it is integrated with the
    # networking code."
    assert integrated / separate > 1.1


def run_keying_granularity_ablation():
    from repro.core.deploy import FBSDomain
    from repro.core.keying import Principal
    from repro.core.policy import PerDatagramPolicy

    results = []
    for label, mapper in (("per-flow (5-tuple policy)", None), ("per-datagram", PerDatagramPolicy())):
        domain = FBSDomain(seed=77)
        alice = domain.make_endpoint(Principal.from_name("alice"), mapper=mapper)
        bob = domain.make_endpoint(Principal.from_name("bob"))
        for i in range(50):
            wire = alice.protect(b"x" * 64, bob.principal, secret=True)
            bob.unprotect(wire, alice.principal, secret=True)
        results.append(
            (
                label,
                alice.registry.counter("flow_key_derivations", side="send").value,
                bob.registry.counter("flow_key_derivations", side="receive").value,
            )
        )
    return results


def test_keying_granularity_ablation(benchmark, report_writer):
    rows = benchmark.pedantic(run_keying_granularity_ablation, rounds=1, iterations=1)
    table = render_table(
        ["keying granularity", "sender derivations / 50 datagrams", "receiver derivations"],
        rows,
    )
    report_writer("ablation_keying_granularity", "Ablation: per-flow vs per-datagram keying\n" + table)
    per_flow = rows[0]
    per_datagram = rows[1]
    assert per_flow[1] == 1  # one derivation for the whole flow
    assert per_datagram[1] == 50  # one per datagram (SKIP-like cost)


def run_confounder_ablation(count=200):
    lcg = LinearCongruential(1)
    start = time.perf_counter()
    for _ in range(count):
        lcg.next_u32()
    lcg_time = time.perf_counter() - start

    bbs = BlumBlumShub(seed=1, bits=128)
    start = time.perf_counter()
    for _ in range(count):
        bbs.next_bytes(4)
    bbs_time = time.perf_counter() - start
    return lcg_time / count, bbs_time / count


def test_confounder_generator_ablation(benchmark, report_writer):
    lcg_per, bbs_per = benchmark.pedantic(run_confounder_ablation, rounds=1, iterations=1)
    table = render_table(
        ["generator", "time per 32-bit value"],
        [
            ("linear congruential (statistical)", f"{lcg_per * 1e6:.2f} us"),
            ("Blum-Blum-Shub (cryptographic)", f"{bbs_per * 1e6:.2f} us"),
        ],
    )
    report_writer(
        "ablation_confounder",
        "Ablation: confounder generator (Sec 2.2/5.3 trade-off)\n" + table,
    )
    # The quadratic residue generator is orders of magnitude slower --
    # the paper's argument for statistical confounders.
    assert bbs_per > 10 * lcg_per


def run_fst_design_ablation(trace):
    from repro.traces.flowsim import TableFlowSimulator
    from repro.core.fam import DatagramAttributes
    from repro.core.flows import FlowStateTable, SflAllocator
    from repro.core.policy import FiveTuplePolicy, ThresholdSweeper

    # Combined (Sec 7.2): threshold check inline, no sweeper pass.
    combined = TableFlowSimulator(threshold=600.0, fst_size=64)
    combined_stats = combined.run(trace)

    # Split (Sec 5.1): plain mapper + periodic sweeper scans.
    fst = FlowStateTable(64)
    alloc = SflAllocator(seed=0)
    policy = FiveTuplePolicy(threshold=None)
    sweeper = ThresholdSweeper(threshold=600.0)
    last_sweep = 0.0
    sweeps = 0
    for record in trace:
        if record.time - last_sweep >= 60.0:
            sweeper.sweep(fst, record.time)
            last_sweep = record.time
            sweeps += 1
        attrs = DatagramAttributes(
            destination_id=record.five_tuple.daddr.to_bytes(),
            five_tuple=record.five_tuple,
            size=record.size,
        )
        policy.classify(attrs, record.time, fst, alloc)
    split_stats = {
        "new_flows": fst.new_flows,
        "sweep_scans": sweeps * 64,
        "expirations": fst.expirations,
    }
    return combined_stats, split_stats


def test_fst_design_ablation(benchmark, lan_trace, report_writer):
    combined, split = benchmark.pedantic(
        run_fst_design_ablation, args=(lan_trace,), rounds=1, iterations=1
    )
    table = render_table(
        ["design", "new flows", "extra entry scans", "explicit expirations"],
        [
            ("combined FST+TFKC (Sec 7.2)", combined["new_flows"], 0, 0),
            ("split mapper+sweeper (Sec 5.1)", split["new_flows"], split["sweep_scans"], split["expirations"]),
        ],
    )
    report_writer("ablation_fst_design", "Ablation: combined vs split FST design\n" + table)
    # Both designs find (almost exactly) the same flows; the combined
    # one does zero sweep scanning -- the Section 7.2 saving.
    assert abs(combined["new_flows"] - split["new_flows"]) <= max(
        5, combined["new_flows"] // 20
    )
    assert split["sweep_scans"] > 0


def run_deployment_mode_ablation():
    from repro.bench import measure_routed_udp_throughput

    rows = []
    for mode in ("generic", "fbs-e2e", "fbs-gateway"):
        result = measure_routed_udp_throughput(mode, total_bytes=150_000)
        rows.append((mode, f"{result.kbps:.0f}"))
    return rows


def test_deployment_mode_ablation(benchmark, report_writer):
    """End-to-end vs gateway deployment (Section 7.1's two options).

    End hosts running the IP mapping vs unmodified hosts behind FBS
    tunnel gateways: the gateway spares interior machines entirely but
    pays encapsulation overhead and concentrates the crypto load.
    """
    rows = benchmark.pedantic(run_deployment_mode_ablation, rounds=1, iterations=1)
    table = render_table(["deployment", "routed ttcp kb/s"], rows)
    report_writer(
        "ablation_deployment",
        "Ablation: end-to-end vs gateway deployment (two LANs + WAN)\n" + table,
    )
    by_mode = {row[0]: float(row[1]) for row in rows}
    assert by_mode["generic"] > by_mode["fbs-e2e"]
    # The gateway pays encapsulation + concentrated crypto: at or below
    # the end-to-end number, but the same order of magnitude.
    assert by_mode["fbs-gateway"] <= by_mode["fbs-e2e"] * 1.05
    assert by_mode["fbs-gateway"] > by_mode["fbs-e2e"] * 0.5


def run_fst_size_sweep(trace):
    from repro.traces.flowsim import ExactFlowSimulator, TableFlowSimulator

    # The FST is per-host kernel state: sweep it over ONE host's own
    # outbound conversations (the file server, the busiest sender).
    own = trace.filter_sender(FILE_SERVER)
    true_flows = len(ExactFlowSimulator(threshold=600.0).run(own))
    rows = []
    for size in (4, 8, 16, 32, 64, 128):
        stats = TableFlowSimulator(threshold=600.0, fst_size=size).run(own)
        rows.append(
            (
                size,
                stats["collision_evictions"],
                stats["new_flows"],
                f"{(stats['new_flows'] - true_flows) / max(1, true_flows) * 100:.1f}%",
            )
        )
    return rows, true_flows


def test_fst_size_sweep(benchmark, lan_trace, report_writer):
    """Footnote 11: "almost no collision is observed with a reasonable
    FSTSIZE, e.g., 32 or above"."""
    rows, true_flows = benchmark.pedantic(
        run_fst_size_sweep, args=(lan_trace,), rounds=1, iterations=1
    )
    table = render_table(
        ["FSTSIZE", "collision evictions", "flows created", "extra flows vs exact"],
        rows,
    )
    report_writer(
        "ablation_fst_size",
        f"FST size sweep (exact flow count: {true_flows})\n" + table,
    )
    by_size = {row[0]: row[1] for row in rows}
    # Footnote 11's claim, per host: collisions shrink rapidly and are
    # nearly gone by FSTSIZE 32.
    assert by_size[32] < by_size[4] / 5
    assert by_size[128] <= by_size[32]
