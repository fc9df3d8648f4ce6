"""Sinks and the tracer: buffering, JSONL round-trips, clock stamping."""

import io
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    AggregatingSink,
    CacheHit,
    CacheMiss,
    DatagramAccepted,
    JsonlSink,
    NullSink,
    RingBufferSink,
    Tracer,
    event_from_dict,
    read_records,
)

from tests.obs.helpers import fold_file


def emit_sample(sink, n=5):
    clock = [0.0]
    tracer = Tracer(sink, now=lambda: clock[0])
    for i in range(n):
        clock[0] = float(i)
        tracer.emit(CacheHit(cache="TFKC"))
    tracer.emit(CacheMiss(cache="RFKC"))
    tracer.emit(DatagramAccepted(sfl=9, size=64))


class TestNullSink:
    def test_disabled_so_emitters_skip_construction(self):
        assert NullSink.enabled is False
        assert NULL_TRACER.enabled is False

    def test_null_tracer_is_shared(self):
        assert isinstance(NULL_TRACER.sink, NullSink)


class TestTracer:
    def test_stamps_simulation_time(self):
        ring = RingBufferSink()
        clock = [0.0]
        tracer = Tracer(ring, now=lambda: clock[0])
        clock[0] = 42.5
        tracer.emit(CacheHit(cache="PVC"))
        assert ring.events[0].t == 42.5

    def test_default_clock_is_constant_zero(self):
        ring = RingBufferSink()
        Tracer(ring).emit(CacheHit(cache="PVC"))
        assert ring.events[0].t == 0.0

    def test_enabled_mirrors_sink(self):
        assert Tracer(RingBufferSink()).enabled is True
        assert Tracer(NullSink()).enabled is False


class TestRingBufferSink:
    def test_keeps_most_recent_events(self):
        ring = RingBufferSink(capacity=3)
        emit_sample(ring, n=5)  # 5 hits + 1 miss + 1 accepted
        assert len(ring) == 3
        assert [type(e).__name__ for e in ring.events] == [
            "CacheHit",
            "CacheMiss",
            "DatagramAccepted",
        ]

    def test_of_type_filters(self):
        ring = RingBufferSink()
        emit_sample(ring, n=2)
        assert len(ring.of_type(CacheHit)) == 2
        assert len(ring.of_type(CacheMiss)) == 1

    def test_clear(self):
        ring = RingBufferSink()
        emit_sample(ring)
        ring.clear()
        assert len(ring) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_writes_one_sorted_json_object_per_line(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        emit_sample(sink, n=1)
        sink.close()  # borrowed buffer: flushed, not closed
        lines = buffer.getvalue().splitlines()
        assert len(lines) == sink.events_written == 3
        first = json.loads(lines[0])
        assert first == {"type": "CacheHit", "cache": "TFKC", "t": 0.0}
        assert event_from_dict(first) == CacheHit(cache="TFKC", t=0.0)

    def test_path_destination_is_owned_and_readable_back(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(str(path)) as sink:
            emit_sample(sink, n=4)
        assert len(list(read_records(str(path)))) == 6
        registry = fold_file(path)
        assert registry.counter("cache_hits", cache="TFKC").value == 4
        assert registry.counter("cache_misses", cache="RFKC").value == 1
        assert registry.counter("datagrams_accepted").value == 1
        assert registry.counter("bytes_accepted").value == 64


class TestAggregatingSink:
    def test_matches_file_based_aggregation(self, tmp_path):
        live = AggregatingSink()
        path = tmp_path / "trace.jsonl"

        class Tee:
            enabled = True

            def __init__(self, jsonl):
                self.jsonl = jsonl

            def emit(self, event):
                live.emit(event)
                self.jsonl.emit(event)

        with JsonlSink(str(path)) as jsonl:
            emit_sample(Tee(jsonl), n=3)
        assert fold_file(path).snapshot() == live.registry.snapshot()
        assert live.registry.counter("cache_hits", cache="TFKC").value == 3


class TestReadJsonlErrors:
    def test_non_json_line_fails_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "CacheHit", "cache": "PVC", "t": 0}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            fold_file(path)

    def test_typeless_record_fails(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cache": "PVC"}\n')
        with pytest.raises(ValueError, match="not an event record"):
            fold_file(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('\n{"type": "CacheHit", "cache": "PVC", "t": 0}\n\n')
        assert len(list(read_records(str(path)))) == 1
        assert fold_file(path).counter("cache_hits", cache="PVC").value == 1

    def test_a_miss_kind_from_an_older_trace_folds_per_cache(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "CacheMiss", "cache": "PVC", "kind": "cold", "t": 0}\n')
        assert fold_file(path).snapshot()["counters"] == {"cache_misses{cache=PVC}": 1}
