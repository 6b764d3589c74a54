"""A one-query workload is bit-identical to run_simulation.

This is the refactor's load-bearing guarantee: the workload engine adds
concurrency *around* the single-query machinery without perturbing it.
Metrics must match field-for-field and the trace event stream must match
record-for-record, modulo the ``query_id`` tag and the ``run.meta``
``query_class`` the workload adds (and modulo the process-global message
``uid`` counter, which both traces normalize to their own first uid).
"""

import pytest

from repro.engine.config import Algorithm
from repro.engine.simulation import run_simulation
from repro.faults.plan import FaultPlan, LinkOutage
from repro.obs.tracer import Tracer
from repro.workload import WorkloadSpec, run_workload
from tests.conftest import tiny_spec


def normalized_events(events):
    """Events with query_id (and run.meta's query_class) stripped and
    uids rebased to the run's first."""
    uids = [e["uid"] for e in events if "uid" in e]
    base = min(uids) if uids else 0
    out = []
    for event in events:
        event = dict(event)
        event.pop("query_id", None)
        if event["type"] == "run.meta":
            event.pop("query_class", None)
        if "uid" in event:
            event["uid"] -= base
        out.append(event)
    return out


def run_both(sim_spec):
    single_tracer = Tracer()
    single = run_simulation(sim_spec, tracer=single_tracer)
    workload_tracer = Tracer()
    result = run_workload(
        WorkloadSpec.from_simulation_spec(sim_spec), tracer=workload_tracer
    )
    assert len(result.queries) == 1
    return single, single_tracer, result, workload_tracer


@pytest.mark.parametrize(
    "algorithm",
    [Algorithm.DOWNLOAD_ALL, Algorithm.ONE_SHOT, Algorithm.GLOBAL, Algorithm.LOCAL],
    ids=lambda a: a.value,
)
class TestIdentity:
    def test_metrics_and_trace_bit_identical(self, algorithm):
        sim_spec = tiny_spec(algorithm, images=5)
        single, single_tracer, result, workload_tracer = run_both(sim_spec)
        wrapped = result.queries[0].metrics

        assert wrapped.summary() == single.summary()
        assert wrapped.arrival_times == single.arrival_times
        assert normalized_events(workload_tracer.events) == normalized_events(
            single_tracer.events
        )

    def test_query_events_are_tagged(self, algorithm):
        sim_spec = tiny_spec(algorithm, images=5)
        tracer = Tracer()
        run_workload(WorkloadSpec.from_simulation_spec(sim_spec), tracer=tracer)
        tagged = [e for e in tracer.events if e.get("query_id") == "c0:0"]
        assert tagged, "workload events must carry the query_id tag"


class TestIdentityUnderFaults:
    def test_faulted_run_matches_too(self):
        plan = FaultPlan(
            link_outages=(LinkOutage(a="client", b="h0", start=5.0, end=15.0),)
        )
        sim_spec = tiny_spec(Algorithm.GLOBAL, images=5, fault_plan=plan)
        single, single_tracer, result, workload_tracer = run_both(sim_spec)
        wrapped = result.queries[0].metrics

        assert wrapped.summary() == single.summary()
        assert wrapped.arrival_times == single.arrival_times
        assert normalized_events(workload_tracer.events) == normalized_events(
            single_tracer.events
        )

    def test_fleet_latency_matches_completion_time(self):
        sim_spec = tiny_spec(Algorithm.ONE_SHOT, images=5)
        result = run_workload(WorkloadSpec.from_simulation_spec(sim_spec))
        query = result.queries[0]
        # Issued at t=0, so latency is exactly the completion time.
        assert query.latency == query.metrics.completion_time
