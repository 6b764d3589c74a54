"""The tracer event bus and its zero-cost-when-disabled contract."""

from __future__ import annotations

from repro.engine.config import Algorithm
from repro.engine.simulation import build_simulation, run_simulation
from repro.obs import NULL_TRACER, NullTracer, Tracer, ensure_tracer
from repro.obs.events import EVENT_KINDS, MESSAGE_SEND, SPAN_EVENTS, is_span
from tests.conftest import tiny_spec


class TestTracer:
    def test_emit_records_ordered_events(self):
        tracer = Tracer()
        tracer.emit("a.b", 1.0, {"x": 1})
        tracer.emit("c.d", 2.0)
        assert [e["type"] for e in tracer.events] == ["a.b", "c.d"]
        assert tracer.events[0] == {"type": "a.b", "t": 1.0, "x": 1}

    def test_span_stores_duration(self):
        tracer = Tracer()
        tracer.span("link.transfer", 1.0, 3.5, {"src_host": "a"})
        (event,) = tracer.events
        assert event["t"] == 1.0
        assert event["dur"] == 2.5
        assert event["src_host"] == "a"

    def test_counters_and_histograms(self):
        tracer = Tracer()
        tracer.incr("n")
        tracer.incr("n", 2)
        for value in (1.0, 2.0, 3.0, 4.0):
            tracer.observe("lat", value)
        assert tracer.counters["n"] == 3
        summary = tracer.histogram_summary()["lat"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5

    def test_kernel_hook_counts_event_classes(self):
        tracer = Tracer()

        class FakeEvent:
            pass

        tracer.kernel_hook(0.0, FakeEvent())
        tracer.kernel_hook(1.0, FakeEvent())
        assert tracer.counters["sim.events"] == 2
        assert tracer.counters["sim.events.FakeEvent"] == 2


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.emit(MESSAGE_SEND, 0.0, {"x": 1})
        tracer.span("link.transfer", 0.0, 1.0)
        tracer.incr("n")
        tracer.observe("lat", 1.0)
        tracer.kernel_hook(0.0, object())

    def test_ensure_tracer(self):
        assert ensure_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert ensure_tracer(tracer) is tracer


class TestZeroCostWhenDisabled:
    """Untraced runs must not install any per-event hook."""

    def test_untraced_build_leaves_kernel_hook_unset(self):
        env, _ = build_simulation(tiny_spec(images=2))
        assert env.trace_hook is None

    def test_traced_build_installs_kernel_hook(self):
        tracer = Tracer()
        env, _ = build_simulation(tiny_spec(images=2), tracer=tracer)
        assert env.trace_hook is not None

    def test_untraced_run_unchanged(self):
        spec = tiny_spec(algorithm=Algorithm.GLOBAL, images=4)
        baseline = run_simulation(spec)
        traced = run_simulation(spec, tracer=Tracer())
        assert traced.summary() == baseline.summary()


class TestEventTaxonomy:
    def test_span_classification(self):
        assert is_span("link.transfer")
        assert is_span("barrier.round")
        assert not is_span(MESSAGE_SEND)
        assert SPAN_EVENTS == frozenset(
            name for name, kind in EVENT_KINDS.items() if kind == "span"
        )
