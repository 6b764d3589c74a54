"""Concurrent mixed-planner workloads on one shared network."""

import json

import pytest

from repro.engine.config import Algorithm
from repro.faults.plan import FaultPlan, LinkOutage
from repro.obs.events import MONITOR_ESTIMATE, PLANNER_SEARCH, RUN_META
from repro.obs.tracer import Tracer
from repro.workload import (
    ClosedLoop,
    OpenLoop,
    QueryClass,
    WorkloadSpec,
    build_schedule,
    fleet_from_trace,
    run_workload,
)


def mixed_spec(**kwargs):
    """>= 8 queries, two planner kinds, faults on, fixed seed."""
    defaults = dict(
        classes=(
            QueryClass(name="gl", algorithm=Algorithm.GLOBAL, weight=1.0),
            QueryClass(name="os", algorithm=Algorithm.ONE_SHOT, weight=1.0),
        ),
        num_clients=4,
        queries_per_client=2,
        arrivals=ClosedLoop(think_time=2.0),
        seed=3,
        num_servers=4,
        images_per_server=3,
        fault_plan=FaultPlan(
            link_outages=(LinkOutage(a="client", b="h0", start=30.0, end=50.0),)
        ),
    )
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


class TestConcurrentRun:
    def test_mixed_planner_fleet_completes(self):
        result = run_workload(mixed_spec())
        assert result.fleet["scheduled"] == 8
        assert result.fleet["launched"] == 8
        assert result.fleet["completed"] == 8
        algorithms = {q.algorithm for q in result.queries}
        assert len(algorithms) >= 2
        assert all(q.latency is not None and q.latency > 0 for q in result.queries)

    def test_deterministic_under_fixed_seed(self):
        first = run_workload(mixed_spec())
        second = run_workload(mixed_spec())
        assert first.fleet == second.fleet
        assert [q.query_id for q in first.queries] == [
            q.query_id for q in second.queries
        ]

    def test_seed_changes_the_run(self):
        base = run_workload(mixed_spec())
        other = run_workload(mixed_spec(seed=4))
        assert base.fleet != other.fleet

    def test_fleet_summary_is_json_serializable(self):
        fleet = run_workload(mixed_spec()).fleet
        round_tripped = json.loads(json.dumps(fleet))
        assert round_tripped == fleet

    def test_fleet_schema_fields(self):
        fleet = run_workload(mixed_spec()).fleet
        assert fleet["workload_schema"] == 1
        assert set(fleet["latency"]) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert 0.0 < fleet["fairness_jain"] <= 1.0
        assert fleet["links"], "shared links must record usage"
        for entry in fleet["links"].values():
            assert entry["bytes"] > 0 or entry["transfers"] == 0
            assert entry["utilization"] >= 0.0
        assert len(fleet["queries"]) == 8
        assert len(fleet["per_client"]) == 4

    def test_replay_from_trace_equals_live_summary(self):
        tracer = Tracer()
        live = run_workload(mixed_spec(), tracer=tracer)
        assert fleet_from_trace(tracer.events) == live.fleet

    def test_queries_are_namespaced_but_trace_ids_stay_plain(self):
        tracer = Tracer()
        run_workload(mixed_spec(), tracer=tracer)
        relocations = [e for e in tracer.events if e["type"] == "relocation"]
        for event in relocations:
            assert "/" not in event["actor"], (
                "runtime-level events must use plain (un-namespaced) actor ids"
            )


class TestContention:
    def test_shared_network_slows_the_fleet(self):
        """Two concurrent clients contend; one alone does not."""
        solo = run_workload(
            mixed_spec(num_clients=1, queries_per_client=1, fault_plan=None)
        )
        crowd = run_workload(
            mixed_spec(num_clients=6, queries_per_client=1, fault_plan=None)
        )
        assert crowd.fleet["latency"]["max"] > solo.fleet["latency"]["max"]

    def test_per_query_bytes_split_across_links(self):
        result = run_workload(mixed_spec(fault_plan=None))
        by_query_total = {}
        for entry in result.fleet["links"].values():
            for qid, nbytes in entry["queries"].items():
                by_query_total[qid] = by_query_total.get(qid, 0.0) + nbytes
        for query in result.queries:
            assert by_query_total[query.query_id] == pytest.approx(
                query.metrics.bytes_on_wire
            )


class TestOpenLoopWorkload:
    def test_open_loop_launches_at_precomputed_times(self):
        spec = mixed_spec(
            arrivals=OpenLoop(rate=0.02, process="poisson"), fault_plan=None
        )
        result = run_workload(spec)
        assert result.fleet["launched"] == 8
        issued = [q.issued_at for q in result.queries]
        assert issued == sorted(issued)
        assert len(set(issued)) > 1

    def test_initial_plans_read_the_view_at_launch_time(self):
        # Monitoring events carry no query id, but the clock only moves
        # forward: every estimate is read at or after the latest launch.
        spec = mixed_spec(
            arrivals=OpenLoop(rate=0.02, process="poisson"), fault_plan=None
        )
        tracer = Tracer()
        run_workload(spec, tracer=tracer)
        launched, latest = {}, 0.0
        for event in tracer.events:
            if event["type"] == RUN_META:
                launched[event["query_id"]] = latest = event["t"]
            elif event["type"] == MONITOR_ESTIMATE:
                assert event["t"] >= latest, event
                assert event["age"] is None or event["age"] >= 0.0, event
            elif event["type"] == PLANNER_SEARCH:
                assert event["t"] >= launched[event["query_id"]], event
        assert len(launched) == 8
        assert max(launched.values()) > 0.0

    def test_fixed_rate_first_query_at_zero(self):
        spec = mixed_spec(
            arrivals=OpenLoop(rate=0.05, process="fixed"),
            queries_per_client=1,
            fault_plan=None,
        )
        result = run_workload(spec)
        assert all(q.issued_at == 0.0 for q in result.queries)


class TestEdges:
    def test_empty_population(self):
        result = run_workload(mixed_spec(num_clients=0))
        assert result.elapsed == 0.0
        assert result.queries == []
        assert result.fleet["scheduled"] == 0
        assert result.fleet["launched"] == 0
        assert result.fleet["fairness_jain"] == 1.0

    def test_schedule_covers_every_slot(self):
        schedule = build_schedule(mixed_spec())
        assert [s.query_id for s in schedule] == [
            f"c{c}:{o}" for c in range(4) for o in range(2)
        ]

    def test_max_sim_time_truncates_unfinished_queries(self):
        spec = mixed_spec(max_sim_time=40.0, fault_plan=None)
        result = run_workload(spec)
        assert result.elapsed <= 40.0
        assert result.fleet["truncated"] + result.fleet["completed"] == (
            result.fleet["launched"]
        )
        assert result.fleet["truncated"] >= 1
