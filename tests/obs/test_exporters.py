"""JSONL archive round-trips and Chrome trace_event export validity."""

from __future__ import annotations

import json

from repro.obs import (
    TRACE_SCHEMA,
    Tracer,
    events_only,
    read_jsonl,
    to_chrome,
    trace_counters,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.events import LINK_TRANSFER, MESSAGE_SEND, SPAN_EVENTS


def sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.meta["algorithm"] = "global"
    tracer.emit(
        MESSAGE_SEND,
        0.5,
        {
            "uid": 1,
            "src_host": "h0",
            "dst_host": "client",
            "transport": "wire",
            "bytes": 100.0,
        },
    )
    tracer.span(
        LINK_TRANSFER,
        0.5,
        2.0,
        {
            "src_host": "h0",
            "dst_host": "client",
            "wire_bytes": 120.0,
            "bandwidth": 80.0,
            "uid": 1,
        },
    )
    tracer.incr("sim.events", 7)
    tracer.observe("link.transfer_seconds", 1.5)
    return tracer


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = sample_tracer()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(tracer, path)
        records = read_jsonl(path)
        assert len(records) == count == len(tracer.events) + 2

        header, footer = records[0], records[-1]
        assert header["type"] == "trace.header"
        assert header["schema"] == TRACE_SCHEMA
        assert header["meta"]["algorithm"] == "global"
        assert footer["type"] == "trace.footer"
        assert footer["counters"]["sim.events"] == 7
        assert footer["histograms"]["link.transfer_seconds"]["count"] == 1

        assert events_only(records) == tracer.events
        assert trace_counters(records) == tracer.counters

    def test_events_survive_verbatim(self, tmp_path):
        tracer = sample_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        (send, transfer) = events_only(read_jsonl(path))
        assert send["type"] == MESSAGE_SEND
        assert transfer["dur"] == 1.5


class TestChrome:
    def test_written_file_is_strict_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(sample_tracer(), path)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"

    def test_phases_and_microseconds(self):
        payload = to_chrome(sample_tracer().events)
        real = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        by_name = {e["name"]: e for e in real}

        instant = by_name[MESSAGE_SEND]
        assert instant["ph"] == "i"
        assert instant["s"] == "t"
        assert instant["ts"] == 0.5e6

        span = by_name[LINK_TRANSFER]
        assert span["ph"] == "X"
        assert span["dur"] == 1.5e6
        assert "dur" not in span["args"]
        for event in real:
            assert set(event["args"]) .isdisjoint({"type", "t", "dur"})
            assert event["ph"] == ("X" if event["name"] in SPAN_EVENTS else "i")

    def test_track_metadata_per_host(self):
        payload = to_chrome(sample_tracer().events)
        names = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "h0" in names

    def test_non_finite_values_stay_loadable(self, tmp_path):
        tracer = Tracer()
        tracer.emit(
            "planner.search",
            0.0,
            {"algorithm": "download-all", "cost": float("inf")},
        )
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        payload = json.loads(path.read_text())
        (event,) = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert event["args"]["cost"] == "inf"
        assert "Infinity" not in path.read_text()
