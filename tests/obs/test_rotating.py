"""Rotating JSONL trace segments and the streaming tracer."""

import json

import pytest

from repro.engine.config import Algorithm
from repro.obs import (
    RotatingTraceWriter,
    StreamingTracer,
    read_segments,
    segment_paths,
)
from repro.workload import (
    WORKLOAD_SCHEMA,
    ClosedLoop,
    QueryClass,
    WorkloadSpec,
    fleet_from_trace,
)
from repro.workload.engine import run_workload


def tiny_spec(**overrides):
    defaults = dict(
        classes=(QueryClass(name="os", algorithm=Algorithm.ONE_SHOT),),
        num_clients=2,
        queries_per_client=2,
        arrivals=ClosedLoop(),
        seed=9,
        num_servers=4,
        images_per_server=2,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestRotatingTraceWriter:
    def test_rotation_by_size(self, tmp_path):
        with RotatingTraceWriter(tmp_path, max_segment_bytes=200) as writer:
            for i in range(50):
                writer.write({"type": "x", "t": float(i), "i": i})
        paths = segment_paths(tmp_path)
        assert len(paths) > 1
        assert writer.records_written == 50
        # Every segment opens with its own replayable header.
        for path in paths:
            first = json.loads(path.read_text().splitlines()[0])
            assert first["type"] == "trace.segment"

    def test_records_roundtrip_in_order(self, tmp_path):
        with RotatingTraceWriter(tmp_path, max_segment_bytes=150) as writer:
            for i in range(30):
                writer.write({"type": "x", "t": float(i), "i": i})
        replayed = [
            r["i"] for r in read_segments(tmp_path) if r["type"] == "x"
        ]
        assert replayed == list(range(30))
        types = [r["type"] for r in read_segments(tmp_path)]
        assert types[-1] == "trace.footer"

    def test_max_segments_prunes_oldest(self, tmp_path):
        writer = RotatingTraceWriter(
            tmp_path, max_segment_bytes=100, max_segments=3
        )
        for i in range(200):
            writer.write({"type": "x", "t": float(i)})
        writer.close()
        assert len(segment_paths(tmp_path)) <= 3
        assert writer.segments_dropped > 0
        # Survivors are the newest records.
        times = [r["t"] for r in read_segments(tmp_path) if r["type"] == "x"]
        assert times == sorted(times)
        assert times[-1] == 199.0

    def test_max_age_prunes_by_sim_time(self, tmp_path):
        writer = RotatingTraceWriter(
            tmp_path, max_segment_bytes=100, max_age_seconds=20.0
        )
        for i in range(200):
            writer.write({"type": "x", "t": float(i)})
        writer.close()
        times = [r["t"] for r in read_segments(tmp_path) if r["type"] == "x"]
        # Everything older than ~20 sim-seconds behind the newest is gone.
        assert times[0] >= 199.0 - 20.0 - 10.0
        assert writer.segments_dropped > 0

    def test_footer_carries_counters(self, tmp_path):
        writer = RotatingTraceWriter(tmp_path)
        writer.write({"type": "x", "t": 0.0})
        writer.close(counters={"events": 1})
        footer = list(read_segments(tmp_path))[-1]
        assert footer["type"] == "trace.footer"
        assert footer["counters"] == {"events": 1}

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RotatingTraceWriter(tmp_path, max_segment_bytes=0)
        with pytest.raises(ValueError):
            RotatingTraceWriter(tmp_path, max_segments=0)
        with pytest.raises(ValueError):
            RotatingTraceWriter(tmp_path, max_age_seconds=0.0)
        writer = RotatingTraceWriter(tmp_path)
        writer.close()
        with pytest.raises(ValueError):
            writer.write({"type": "x"})


class TestStreamingTracer:
    def test_events_spool_to_disk_not_memory(self, tmp_path):
        with StreamingTracer(tmp_path, max_segment_bytes=4096) as tracer:
            run_workload(tiny_spec(), tracer=tracer)
        assert tracer.events == []
        assert tracer.writer.records_written > 0

    def test_exact_replay_equals_live_fleet(self, tmp_path):
        tracer = StreamingTracer(tmp_path, max_segment_bytes=8192)
        result = run_workload(tiny_spec(), tracer=tracer)
        tracer.close()
        assert fleet_from_trace(read_segments(tmp_path)) == result.fleet

    def test_streaming_replay_equals_live_fleet(self, tmp_path):
        spec = tiny_spec(exact_metrics_threshold=0)
        tracer = StreamingTracer(tmp_path, max_segment_bytes=8192)
        result = run_workload(spec, tracer=tracer)
        tracer.close()
        replayed = fleet_from_trace(read_segments(tmp_path), exact_threshold=0)
        assert replayed == result.fleet

    def test_meta_lands_in_every_segment_header(self, tmp_path):
        tracer = StreamingTracer(tmp_path, max_segment_bytes=2048)
        run_workload(tiny_spec(), tracer=tracer)
        tracer.close()
        headers = [
            r for r in read_segments(tmp_path) if r["type"] == "trace.segment"
        ]
        assert len(headers) == len(segment_paths(tmp_path))
        for header in headers[1:]:
            # Meta is shared by reference, so even late segments carry it.
            assert header["meta"] == headers[0]["meta"]
        assert "num_clients" in headers[0]["meta"]

    def test_pruned_trace_replays_observable_suffix(self, tmp_path):
        spec = tiny_spec(num_clients=4, exact_metrics_threshold=0)
        tracer = StreamingTracer(
            tmp_path, max_segment_bytes=2048, max_segments=2
        )
        result = run_workload(spec, tracer=tracer)
        tracer.close()
        assert tracer.writer.segments_dropped > 0
        replayed = fleet_from_trace(read_segments(tmp_path), exact_threshold=0)
        # The suffix can only under-count, never invent queries.
        assert replayed["launched"] <= result.fleet["launched"]
        assert replayed["completed"] <= result.fleet["completed"]
        assert replayed["workload_schema"] == WORKLOAD_SCHEMA
