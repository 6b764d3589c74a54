"""Replaying a recorded trace must reproduce the live run's metrics.

Every trace event is emitted at the exact code point where the matching
counter increments, so a seeded run's JSONL archive replays to a
:class:`RunMetrics` that matches the live one field-for-field — the
paper-facing aggregates and the event stream cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.engine.config import Algorithm
from repro.engine.metrics import RunMetrics
from repro.engine.simulation import run_simulation
from repro.faults import reference_chaos_plan
from repro.obs import Tracer, summarize_records, write_jsonl
from repro.obs.summary import format_trace_summary
from repro.traces import BandwidthTrace
from tests.conftest import complete_links, tiny_spec


def _assert_summaries_match(live: RunMetrics, replayed: RunMetrics) -> None:
    live_summary, replay_summary = live.summary(), replayed.summary()
    for key, value in live_summary.items():
        other = replay_summary[key]
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(other), key
        else:
            assert other == value, key


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_replay_matches_live_metrics(algorithm, tmp_path):
    tracer = Tracer()
    live = run_simulation(tiny_spec(algorithm=algorithm, images=5), tracer=tracer)
    path = tmp_path / "run.jsonl"
    write_jsonl(tracer, path)

    replayed = RunMetrics.from_trace(str(path))
    _assert_summaries_match(live, replayed)
    assert replayed.arrival_times == live.arrival_times
    assert replayed.relocation_events == live.relocation_events


def _moving_spec(algorithm, chaos):
    """Links touching h1 collapse at t=200, so the global algorithm
    probes and relocates mid-run."""
    hosts = [f"h{i}" for i in range(4)] + ["client"]
    links = complete_links(hosts, rate=60 * 1024.0)
    for key in list(links):
        if "h1" in key:
            links[key] = BandwidthTrace([0.0, 200.0], [80 * 1024.0, 0.5 * 1024.0])
    spec = tiny_spec(
        algorithm,
        images=40,
        link_traces=links,
        relocation_period=60.0,
        probe_before_planning=True,
    )
    if chaos:
        spec = dataclasses.replace(
            spec, fault_plan=reference_chaos_plan(spec.all_hosts, seed=1)
        )
    return spec


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_replay_matches_every_field(algorithm, chaos):
    """Every ``RunMetrics`` field replays, so a new counter without a
    ``feed`` branch fails here.  ``kernel_events`` is set by the
    simulation driver from the kernel, not counted from events."""
    tracer = Tracer()
    live = run_simulation(_moving_spec(algorithm, chaos), tracer=tracer)
    replayed = RunMetrics.from_trace(tracer.events)
    if algorithm is Algorithm.GLOBAL:
        assert live.relocations and live.probes_sent
    if chaos:
        assert live.retransmissions and live.host_downtime_seconds
    for field in dataclasses.fields(RunMetrics):
        if field.name != "kernel_events":
            assert getattr(replayed, field.name) == getattr(live, field.name), (
                field.name
            )


def test_from_trace_accepts_records():
    tracer = Tracer()
    live = run_simulation(tiny_spec(algorithm=Algorithm.GLOBAL, images=4),
                          tracer=tracer)
    replayed = RunMetrics.from_trace(tracer.events)
    _assert_summaries_match(live, replayed)


def test_trace_summary_consistent_with_metrics():
    tracer = Tracer()
    live = run_simulation(tiny_spec(algorithm=Algorithm.GLOBAL, images=4),
                          tracer=tracer)
    summary = summarize_records(tracer.events)
    assert len(summary.metrics.arrival_times) == len(live.arrival_times)
    assert summary.completion_time == live.completion_time
    assert len(summary.relocations) == live.relocations
    assert summary.metrics.barrier_stall_seconds == pytest.approx(
        live.barrier_stall_seconds
    )
    wire_bytes = sum(v[1] for v in summary.link_traffic.values())
    assert wire_bytes == pytest.approx(live.bytes_on_wire)


class TestEventHistogram:
    def test_counts_every_non_frame_record(self):
        xfer = {"src_host": "a", "dst_host": "b", "wire_bytes": 10}
        records = [
            {"type": "trace.header", "meta": {}},
            {"type": "link.transfer", "t": 1.0, **xfer},
            {"type": "link.transfer", "t": 2.0, **xfer},
            {"type": "planner.run", "t": 3.0},
            {"type": "trace.footer", "counters": {}},
        ]
        summary = summarize_records(records)
        assert summary.event_histogram == {
            "link.transfer": 2,
            "planner.run": 1,
        }

    def test_histogram_totals_match_stream(self):
        tracer = Tracer()
        run_simulation(tiny_spec(algorithm=Algorithm.GLOBAL, images=4),
                       tracer=tracer)
        summary = summarize_records(tracer.events)
        framed = [e for e in tracer.events
                  if not e.get("type", "").startswith("trace.")]
        assert sum(summary.event_histogram.values()) == len(framed)
        assert summary.event_histogram["link.transfer"] == sum(
            v[0] for v in summary.link_traffic.values()
        )

    def test_report_renders_histogram_and_kernel_counters(self):
        xfer = {"src_host": "a", "dst_host": "b", "wire_bytes": 10}
        summary = summarize_records([
            {"type": "link.transfer", "t": 1.0, **xfer},
            {"type": "link.transfer", "t": 2.0, **xfer},
            {"type": "arrival", "t": 3.0},
            {
                "type": "trace.footer",
                "counters": {
                    "sim.events": 42,
                    "sim.events.Callback": 30,
                    "sim.events.Timeout": 12,
                },
            },
        ])
        report = format_trace_summary(summary)
        assert "trace event histogram (3 records, 2 types):" in report
        # Sorted by descending count.
        lines = report.splitlines()
        histogram_at = lines.index("trace event histogram (3 records, 2 types):")
        assert "link.transfer" in lines[histogram_at + 1]
        assert "arrival" in lines[histogram_at + 2]
        assert "kernel events processed: 42" in report
        assert any("Callback" in line and "30" in line for line in lines)

    def test_report_caps_histogram_rows(self):
        records = [{"type": f"kind.{i:03d}", "t": float(i)} for i in range(30)]
        report = format_trace_summary(summarize_records(records), max_rows=5)
        assert "... 25 more types" in report


class TestMultiRunSummary:
    """A workload trace holds one ``run.meta``/``run.end`` per query."""

    @staticmethod
    def meta(algorithm, query_id):
        return {
            "type": "run.meta",
            "t": 0.0,
            "query_id": query_id,
            "algorithm": algorithm,
            "num_servers": 4,
            "images": 1,
            "tree_shape": "binary",
        }

    @staticmethod
    def end(t, query_id, truncated, completion):
        return {
            "type": "run.end",
            "t": t,
            "query_id": query_id,
            "truncated": truncated,
            "completion_time": completion,
        }

    def records(self):
        # The truncated query ends last but completed earlier: neither
        # TRUNCATED nor the completion may come from the last run.end.
        return [
            self.meta("global", "c0:0"),
            self.meta("one-shot", "c1:0"),
            self.meta("global", "c2:0"),
            {"type": "arrival", "t": 50.0, "query_id": "c1:0"},
            {"type": "arrival", "t": 90.0, "query_id": "c0:0"},
            self.end(90.0, "c0:0", False, 90.0),
            self.end(95.0, "c2:0", False, float("nan")),
            self.end(120.0, "c1:0", True, 50.0),
        ]

    def test_counts_every_query(self):
        summary = summarize_records(self.records())
        assert summary.runs == 3
        assert summary.algorithms == {"global": 2, "one-shot": 1}
        assert summary.truncated
        assert summary.completion_time == 90.0

    def test_report_names_the_mix(self):
        lines = format_trace_summary(summarize_records(self.records())).splitlines()
        assert lines[0] == "run: 3 queries (global=2, one-shot=1)"
        assert lines[1] == "arrivals: 2 (completion 90.0s, TRUNCATED)"

    def test_single_run_report_unchanged(self):
        records = [
            self.meta("global", "c0:0"),
            {"type": "arrival", "t": 40.0},
            self.end(41.0, "c0:0", True, 40.0),
        ]
        lines = format_trace_summary(summarize_records(records)).splitlines()
        assert lines[0] == (
            "run: algorithm=global, num_servers=4, images=1, tree_shape=binary"
        )
        assert lines[1] == "arrivals: 1 (completion 40.0s, TRUNCATED)"
