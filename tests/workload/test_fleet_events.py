"""Overload protection and fleet coordination in one fleet.

Both feed the sink through the same event path, so a fleet running
both under the reference chaos plan must replay from its trace to the
identical summary, and its shards must fold to the same summary
serially or in parallel.
"""

from repro.engine.config import Algorithm
from repro.faults import reference_chaos_plan
from repro.obs import Tracer
from repro.workload import (
    FleetPolicy,
    OpenLoop,
    OverloadPolicy,
    QueryClass,
    WorkloadSpec,
    fleet_from_trace,
    run_workload,
    run_workload_sharded,
)


def combined_spec(**overrides):
    """Queued, deadline-bound, retried and breaker-guarded queries that
    also ask a one-token fleet coordinator for every relocation."""
    classes = (
        QueryClass(
            name="gold",
            algorithm=Algorithm.GLOBAL,
            deadline=600.0,
            slo_target=400.0,
            overrides={"relocation_period": 30.0},
        ),
        QueryClass(name="bulk", algorithm=Algorithm.ONE_SHOT),
    )
    hosts = (*[f"h{i}" for i in range(4)], "client")
    defaults = dict(
        classes=classes,
        num_clients=6,
        queries_per_client=3,
        arrivals=OpenLoop(rate=0.02, process="poisson"),
        seed=5,
        num_servers=4,
        images_per_server=3,
        fault_plan=reference_chaos_plan(hosts, seed=3),
        overload=OverloadPolicy(
            max_concurrent=3,
            max_queue_depth=4,
            retry_budget=2,
            retry_backoff=45.0,
            breaker_threshold=2,
            breaker_cooldown=300.0,
        ),
        fleet=FleetPolicy(
            mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
        ),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestCombinedReplay:
    def test_live_matches_replay(self):
        tracer = Tracer()
        result = run_workload(combined_spec(), tracer=tracer)
        resilience = result.fleet["resilience"]
        # Every event type the replay maps moves at least once.
        for key in (
            "shed", "queued", "deadline_aborts", "retries",
            "retry_budget_exhausted", "degraded",
        ):
            assert resilience[key] > 0, key
        assert resilience["breaker"]["opens"] > 0
        assert resilience["breaker"]["closes"] > 0
        assert resilience["per_class"]["gold"]["slo_eligible"] > 0
        coordination = result.fleet["fleet"]
        for key in ("claims", "grants", "denies", "rebalances"):
            assert coordination[key] > 0, key
        assert fleet_from_trace(tracer.events) == result.fleet

    def test_serial_matches_parallel(self):
        spec = combined_spec()
        serial = run_workload_sharded(spec, 2, workers=1)
        parallel = run_workload_sharded(spec, 2, workers=2)
        assert serial.fleet == parallel.fleet
        assert "resilience" in serial.fleet
        assert "fleet" in serial.fleet
