"""Offline trace aggregation reproduces CacheSimulator statistics exactly.

This is the acceptance check behind EXPERIMENTS.md section 4 (Figure 11
regeneration): a JSONL trace written during a cache replay, summarized
after the fact, must agree with the simulator's own ``CacheStats`` to
the last count -- the trace is the ground truth, not an approximation.
"""

import pytest

from repro.netsim.addresses import IPAddress
from repro.obs import JsonlSink, parse_metric_key, read_records
from repro.traces.flowsim import CacheSimulator
from repro.traces.workloads import CampusLanWorkload

from tests.obs.helpers import fold_file


@pytest.fixture(scope="module")
def lan_trace():
    # Small but busy enough to exercise hits, misses and evictions.
    return CampusLanWorkload(duration=900.0, clients=6, seed=5).generate()


def _assert_tally_matches(registry, cache, stats):
    assert registry.counter("cache_hits", cache=cache).value == stats.hits
    assert registry.counter("cache_misses", cache=cache).value == stats.misses
    assert registry.counter("cache_evictions", cache=cache).value == stats.evictions


def test_summarized_trace_equals_simulator_stats(tmp_path, lan_trace):
    server = IPAddress("10.1.0.250")  # the workload's file server
    path = tmp_path / "fig11.jsonl"
    with JsonlSink(str(path)) as sink:
        sim = CacheSimulator(8, sink=sink, label="[8]")
        send = sim.send_side(lan_trace, server)
        recv = sim.receive_side(lan_trace, server)

    assert send.lookups > 0 and recv.lookups > 0
    registry = fold_file(path)
    _assert_tally_matches(registry, "TFKC[8]", send)
    _assert_tally_matches(registry, "RFKC[8]", recv)
    counters = registry.snapshot()["counters"]
    assert {parse_metric_key(key)[1]["cache"] for key in counters} == {"TFKC[8]", "RFKC[8]"}
    assert set(registry.names()) == {"cache_hits", "cache_misses", "cache_evictions"}


def test_sweep_sizes_share_one_trace_file(tmp_path, lan_trace):
    server = IPAddress("10.1.0.250")
    path = tmp_path / "sweep.jsonl"
    stats = {}
    with JsonlSink(str(path)) as sink:
        for size in (4, 16):
            sim = CacheSimulator(size, sink=sink, label=f"[{size}]")
            stats[size] = sim.send_side(lan_trace, server)
    registry = fold_file(path)
    for size in (4, 16):
        _assert_tally_matches(registry, f"TFKC[{size}]", stats[size])
    # Bigger cache, no worse miss rate -- the Figure 11 shape.
    assert stats[16].miss_rate <= stats[4].miss_rate


def test_events_carry_the_trace_clock(tmp_path, lan_trace):
    server = IPAddress("10.1.0.250")
    path = tmp_path / "clock.jsonl"
    with JsonlSink(str(path)) as sink:
        CacheSimulator(8, sink=sink).send_side(lan_trace, server)
    times = [record["t"] for record in read_records(str(path))]
    assert times == sorted(times)
    assert 0.0 <= times[0] <= times[-1] <= 900.0
    assert times[-1] > 0.0
