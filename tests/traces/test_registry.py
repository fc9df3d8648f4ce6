"""The workload registry: one catalogue, every consumer derives from it.

The determinism contract: every registered workload is byte-stable for
a fixed seed, and ``generate()`` is idempotent, so a workload rebuilt
from ``(name, seed, duration)`` in a fresh object produces the
identical stream.
"""

import pickle

import pytest

from repro.load.worker import WorkerSpec, run_worker
from repro.traces.registry import (
    WORKLOADS,
    build_workload,
    register_workload,
    workload_names,
    workload_summaries,
)

#: Short generation horizon so the full catalogue stays test-sized.
_DURATION = 90.0


class TestCatalogue:
    def test_expected_workloads_registered(self):
        assert set(workload_names()) >= {
            "smoke",
            "synthetic",
            "campus-lan",
            "www-server",
            "mix",
            "cdf-web-search",
            "cdf-data-mining",
            "onoff-bursty",
            "flash-crowd",
        }

    def test_names_sorted_and_summarized(self):
        names = workload_names()
        assert names == sorted(names)
        summaries = workload_summaries()
        assert list(summaries) == names
        assert all(summaries[name] for name in names)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload("smoke", WORKLOADS["smoke"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("no-such-workload", seed=0)

    def test_datagram_cap(self):
        trace = build_workload("smoke", seed=0, datagrams=100)
        assert len(trace) == 100


class TestEveryWorkloadDeterministic:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_byte_stable_for_fixed_seed(self, name):
        a = build_workload(name, seed=11, duration=_DURATION)
        b = build_workload(name, seed=11, duration=_DURATION)
        assert len(a) > 0
        assert list(a) == list(b)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_generate_is_idempotent(self, name):
        # One workload object, two generate() calls: the RNG and any
        # allocator state must be rebuilt inside generate(), or a
        # second replay would see a different stream.
        workload = WORKLOADS[name](7, _DURATION)
        assert list(workload.generate()) == list(workload.generate())

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seed_actually_steers(self, name):
        a = build_workload(name, seed=0, duration=_DURATION)
        b = build_workload(name, seed=1, duration=_DURATION)
        assert list(a) != list(b)


class TestSpawnSafety:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_pickled_spec_rebuilds_identical_stream(self, name):
        # A WorkerSpec carries no workload, only (name, seed, duration):
        # the replay regenerates the stream from those.  Pickle
        # round-trip the spec and replay both -- identical results.
        spec = WorkerSpec(
            worker=0,
            workers=1,
            workload=name,
            seed=3,
            duration=_DURATION,
            datagrams=120,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert run_worker(clone) == run_worker(spec)
