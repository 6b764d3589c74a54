"""The fleet-metrics sink, with and without per-query records."""

import copy
import inspect
import itertools
import json
import random
import tracemalloc
from dataclasses import replace

import pytest

from repro.engine.config import Algorithm
from repro.faults import reference_chaos_plan
from repro.obs import Tracer
from repro.obs.events import QUERY_SHED
from repro.workload import (
    WORKLOAD_SCHEMA,
    ClosedLoop,
    ExactFleetMetrics,
    FleetPolicy,
    FleetMetrics,
    MetricsSink,
    QueryClass,
    QueryStats,
    StreamingFleetMetrics,
    WorkloadSpec,
    client_index_of,
    fleet_from_trace,
    merge_sinks,
    run_workload,
)
from tests.oracles.percentiles import exact_percentiles


def public_methods(cls) -> set[str]:
    return {
        name
        for name, raw in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(raw)
    }


def test_protocol_lists_every_sink_method():
    """The traced benchmark wraps each :class:`MetricsSink` method (plus
    ``observe``) on :class:`FleetMetrics`; a method added to or dropped
    from one of them alone would go unmeasured or break that pass."""
    assert public_methods(MetricsSink) == public_methods(FleetMetrics) - {
        "observe"
    }


def tiny_spec(**overrides):
    defaults = dict(
        classes=(QueryClass(name="os", algorithm=Algorithm.ONE_SHOT),),
        num_clients=3,
        queries_per_client=2,
        arrivals=ClosedLoop(),
        seed=11,
        num_servers=4,
        images_per_server=2,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def synthetic_stats(n, num_clients, seed=3):
    """Deterministic finished/truncated QueryStats over a population."""
    rng = random.Random(seed)
    stats = []
    for i in range(n):
        client = i % num_clients
        issued = 10.0 * i
        truncated = rng.random() < 0.1
        stats.append(
            QueryStats(
                query_id=f"c{client}:{i // num_clients}",
                class_name="os" if i % 2 else "gl",
                algorithm="one-shot" if i % 2 else "global",
                issued_at=issued,
                completion_time=None if truncated else issued + rng.uniform(50, 500),
                images_delivered=8,
                truncated=truncated,
                relocations=rng.randrange(3),
                aborted_relocations=0,
                bytes_on_wire=float(rng.randrange(10**6)),
            )
        )
    return stats


def feed(sink, stats):
    for s in stats:
        sink.query_started(s.query_id, s.class_name, s.issued_at)
        sink.query_finished(s)


class TestQueryStats:
    def test_latency_and_finished(self):
        done = QueryStats(
            query_id="c0:0", class_name="os", algorithm="one-shot",
            issued_at=5.0, completion_time=25.0, images_delivered=4,
            truncated=False, relocations=0, aborted_relocations=0,
            bytes_on_wire=0.0,
        )
        assert done.finished and done.latency == 20.0
        trunc = QueryStats(
            query_id="c1:0", class_name="os", algorithm="one-shot",
            issued_at=5.0, completion_time=None, images_delivered=0,
            truncated=True, relocations=0, aborted_relocations=0,
            bytes_on_wire=0.0,
        )
        assert not trunc.finished and trunc.latency is None

    def test_client_index_of(self):
        assert client_index_of("c0:0") == 0
        assert client_index_of("c17:3") == 17


class TestModeSelection:
    def test_threshold_picks_exact_or_streaming(self):
        # 3 clients x 2 queries = 6: records kept up to a threshold of 6.
        assert tiny_spec(exact_metrics_threshold=6).build_metrics().keeps_records
        assert not tiny_spec(exact_metrics_threshold=5).build_metrics().keeps_records

    def test_spec_builds_its_sink(self):
        sink = tiny_spec().build_metrics()
        assert type(sink) is FleetMetrics
        assert sink.keeps_records and sink.num_clients == 3
        assert not tiny_spec(exact_metrics_threshold=0).build_metrics().keeps_records

    def test_named_defaults(self):
        # The two historical names are the one sink with a retention default.
        assert ExactFleetMetrics is FleetMetrics
        assert issubclass(StreamingFleetMetrics, FleetMetrics)
        assert ExactFleetMetrics().keeps_records
        assert not StreamingFleetMetrics(4).keeps_records
        assert StreamingFleetMetrics(4, keep_records=True).keeps_records


class TestExactSink:
    def test_small_fleet_summary_unchanged(self):
        """The sink path is byte-identical to the pre-sink goldens."""
        result = run_workload(tiny_spec())
        assert result.fleet["workload_schema"] == WORKLOAD_SCHEMA
        assert result.metrics.keeps_records
        assert result.fleet["completed"] == 6
        assert result.fleet == result.metrics.summary(
            result.elapsed, scheduled=result.fleet["scheduled"]
        )

    def test_merge_resorts_stats(self):
        stats = synthetic_stats(8, 4)
        one = ExactFleetMetrics(4)
        feed(one, stats)
        shards = [ExactFleetMetrics(4), ExactFleetMetrics(4)]
        for i, s in enumerate(stats):
            feed(shards[i % 2], [s])
        merged = merge_sinks([shards[1], shards[0]])
        assert merged.summary(100.0) == one.summary(100.0)


class TestStreamingSink:
    def feed(self, sink, stats):
        feed(sink, stats)

    def test_summary_shape(self):
        sink = StreamingFleetMetrics(num_clients=4)
        self.feed(sink, synthetic_stats(20, 4))
        sink.link_transfer("h0", "h1", 1000.0, 2.0, "c0:0")
        summary = sink.summary(500.0, scheduled=20)
        assert summary["workload_schema"] == WORKLOAD_SCHEMA
        assert summary["mode"] == "streaming"
        assert set(summary["latency"]) == {
            "count", "mean", "p50", "p95", "p99", "max",
        }
        assert summary["clients"]["total"] == 4
        assert "queries" not in summary
        assert "per_client" not in summary
        assert "queries" not in summary["links"]["h0--h1"]
        json.dumps(summary)  # JSON-safe

    def test_matches_exact_within_error(self):
        stats = synthetic_stats(400, 8)
        exact = ExactFleetMetrics(8)
        sink = StreamingFleetMetrics(num_clients=8, relative_error=0.01)
        self.feed(exact, stats)
        self.feed(sink, stats)
        exact_summary = exact.summary(5000.0)
        streaming_summary = sink.summary(5000.0)
        assert streaming_summary["completed"] == exact_summary["completed"]
        assert streaming_summary["truncated"] == exact_summary["truncated"]
        for key in ("p50", "p95", "p99"):
            truth = exact_summary["latency"][key]
            estimate = streaming_summary["latency"][key]
            assert abs(estimate - truth) <= 2 * 0.01 * truth
        assert streaming_summary["latency"]["max"] == (
            exact_summary["latency"]["max"]
        )
        assert abs(
            streaming_summary["fairness_jain"]
            - exact_summary["fairness_jain"]
        ) < 1e-9

    def test_shard_merge_is_order_invariant(self):
        stats = synthetic_stats(60, 6)
        shards = []
        for i in range(3):
            sink = StreamingFleetMetrics(num_clients=6)
            self.feed(sink, [s for s in stats if client_index_of(s.query_id) % 3 == i])
            sink.link_transfer("h0", f"h{i + 1}", 100.0 * (i + 1), 1.0)
            shards.append(sink)
        summaries = set()
        for order in itertools.permutations(range(3)):
            merged = merge_sinks([copy.deepcopy(shards[i]) for i in order])
            summaries.add(json.dumps(merged.summary(600.0, scheduled=60)))
        assert len(summaries) == 1

    def test_merge_guards(self):
        with pytest.raises(ValueError, match="population"):
            StreamingFleetMetrics(4).merge(StreamingFleetMetrics(5))
        with pytest.raises(ValueError, match="accuracy"):
            StreamingFleetMetrics(4, relative_error=0.01).merge(
                StreamingFleetMetrics(4, relative_error=0.02)
            )
        with pytest.raises(ValueError, match="retention"):
            StreamingFleetMetrics(4).merge(ExactFleetMetrics(4))
        with pytest.raises(ValueError, match="retention"):
            ExactFleetMetrics(4).merge(StreamingFleetMetrics(4))
        with pytest.raises(TypeError):
            ExactFleetMetrics().merge(object())

    def test_link_bytes_attributed_by_class(self):
        sink = StreamingFleetMetrics(num_clients=2)
        sink.query_started("c0:0", "gl", 0.0)
        sink.link_transfer("h1", "h0", 500.0, 1.0, "c0:0")
        sink.link_transfer("h0", "h1", 300.0, 1.0, "c0:0")
        summary = sink.summary(10.0)
        link = summary["links"]["h0--h1"]
        assert link["bytes"] == 800.0
        assert link["classes"] == {"gl": 800.0}
        assert summary["bytes_on_wire"] == 800.0

    def test_streaming_workload_run(self):
        result = run_workload(tiny_spec(exact_metrics_threshold=0))
        fleet = result.fleet
        assert fleet["workload_schema"] == WORKLOAD_SCHEMA
        assert fleet["completed"] == 6
        assert fleet["latency"]["count"] == 6
        assert result.queries == []

    def test_live_streaming_close_to_exact_run(self):
        import math

        exact = run_workload(tiny_spec()).fleet
        streaming = run_workload(tiny_spec(exact_metrics_threshold=0)).fleet
        assert streaming["completed"] == exact["completed"]
        lats = sorted(
            q["latency"] for q in exact["queries"] if q["latency"] is not None
        )
        # At tiny n the sketch and the exact block round fractional ranks
        # differently, so accept either adjacent order statistic.
        for p in (50, 95, 99):
            rank = (p / 100.0) * (len(lats) - 1)
            candidates = {lats[math.floor(rank)], lats[math.ceil(rank)]}
            estimate = streaming["latency"][f"p{p}"]
            assert any(
                abs(estimate - truth) <= 2 * 0.01 * truth
                for truth in candidates
            )


class TestRecordFreeAtScale:
    """A record-free sink fed 20,000 clients x 2 queries stays flat."""

    NUM_CLIENTS = 20_000
    TOTAL = 2 * NUM_CLIENTS
    EPS = 0.01

    def outcome_stream(self):
        rng = random.Random(20_260_808)
        clock = 0.0
        for i in range(self.TOTAL):
            clock += rng.expovariate(1.0)
            client = i % self.NUM_CLIENTS
            latency = rng.lognormvariate(5.0, 1.2)
            yield QueryStats(
                query_id=f"c{client}:{i // self.NUM_CLIENTS}",
                class_name="global" if i % 3 else "one-shot",
                algorithm="global" if i % 3 else "one-shot",
                issued_at=clock,
                completion_time=clock + latency,
                images_delivered=8,
                truncated=False,
                relocations=i % 4,
                aborted_relocations=0,
                bytes_on_wire=float(rng.randrange(10**7)),
            )

    def test_memory_flat_and_percentiles_within_budget(self):
        sink = FleetMetrics(
            self.NUM_CLIENTS, relative_error=self.EPS, keep_records=False
        )
        tracemalloc.start()
        try:
            for i, stats in enumerate(self.outcome_stream()):
                sink.query_started(
                    stats.query_id, stats.class_name, stats.issued_at
                )
                sink.query_finished(stats)
                if i + 1 == self.TOTAL // 2:
                    halfway, _ = tracemalloc.get_traced_memory()
            final, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Per-client arrays are allocated by the first half of the
        # stream; the second half must not grow the sink.
        assert final / halfway < 1.5, (halfway, final)

        latency = sink.summary(elapsed=1.0, scheduled=self.TOTAL)["latency"]
        exact = exact_percentiles(
            [s.latency for s in self.outcome_stream()], (50, 95, 99)
        )
        for p, truth in zip((50, 95, 99), exact):
            assert abs(latency[f"p{p}"] - truth) <= 2 * self.EPS * truth


class TestMergeSinks:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_sinks([])

    @pytest.mark.parametrize("keep_records", [True, False])
    def test_merge_leaves_arguments_unchanged(self, keep_records):
        """A merge copies what it adopts: a later merge must not reach
        back into an earlier argument's link, class or resilience state."""
        sinks = []
        for index, (class_name, src) in enumerate(
            [("early", "h0"), ("later", "a"), ("later", "a")]
        ):
            qid = f"c{index}:0"
            sink = FleetMetrics(3, keep_records=keep_records)
            sink.query_started(qid, class_name, 0.0)
            sink.link_transfer(src, "b", 100.0, 1.0, qid)
            sink.fleet_event(QUERY_SHED, {"query_class": class_name})
            sink.query_finished(
                QueryStats(
                    query_id=qid, class_name=class_name,
                    algorithm="one-shot", issued_at=0.0,
                    completion_time=10.0 + index, images_delivered=1,
                    truncated=False, relocations=index,
                    aborted_relocations=0, bytes_on_wire=100.0,
                )
            )
            sinks.append(sink)
        before = [json.dumps(s.summary(20.0)) for s in sinks]
        merged = merge_sinks(list(sinks)).summary(20.0)
        assert merged["links"]["a--b"]["bytes"] == 200.0
        assert merged["per_class"]["later"]["launched"] == 2
        # Every argument but the head (the merge target) is untouched.
        assert [json.dumps(s.summary(20.0)) for s in sinks[1:]] == before[1:]


class TestReplay:
    """One single-pass replay rebuilds the live summary either way."""

    def replay_equals_live(self, spec):
        tracer = Tracer()
        result = run_workload(spec, tracer=tracer)
        replayed = fleet_from_trace(
            tracer.events, exact_threshold=spec.exact_metrics_threshold
        )
        assert replayed == result.fleet
        return result.fleet

    def test_no_records(self):
        fleet = self.replay_equals_live(tiny_spec(exact_metrics_threshold=0))
        assert "queries" not in fleet and fleet["completed"] == 6

    @pytest.mark.parametrize("threshold", [1000, 0])
    def test_fleet_coordinated_chaos_run(self, threshold):
        spec = tiny_spec(
            classes=(
                QueryClass(
                    name="global",
                    algorithm=Algorithm.GLOBAL,
                    overrides={"relocation_period": 30.0},
                ),
            ),
            queries_per_client=1,
            images_per_server=6,
            fleet=FleetPolicy(
                mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
            ),
            exact_metrics_threshold=threshold,
        )
        spec = replace(
            spec, fault_plan=reference_chaos_plan(spec.all_hosts, seed=3)
        )
        fleet = self.replay_equals_live(spec)
        assert fleet["fleet"]["claims"] == 3

    def test_one_query_replays_under_its_class(self):
        """A lone query's ``run.meta`` names its class, so the replay
        files it under ``gold``, not under its algorithm's name."""
        spec = tiny_spec(
            classes=(
                QueryClass(
                    name="gold", algorithm=Algorithm.ONE_SHOT, slo_target=5000.0
                ),
            ),
            num_clients=1,
            queries_per_client=1,
        )
        fleet = self.replay_equals_live(spec)
        assert list(fleet["per_class"]) == ["gold"]
