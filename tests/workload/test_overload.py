"""Fleet-level overload protection: admission, deadlines, breakers.

The policy knobs are exercised one at a time on small fleets whose
behaviour is deterministic given the seed, then together under the
reference chaos plan, where live summaries must reconcile bit-exactly
with trace replays through both sink implementations.
"""

import json
from dataclasses import replace

import pytest

from repro.engine.config import Algorithm
from repro.faults import FaultPlan, HostCrash, reference_chaos_plan
from repro.obs import Tracer
from repro.obs.events import (
    BREAKER_CLOSE,
    BREAKER_OPEN,
    QUERY_DEADLINE_ABORT,
    QUERY_QUEUED,
    QUERY_RETRY,
    QUERY_SHED,
    RETRY_BUDGET_EXHAUSTED,
)
from repro.workload import (
    ClosedLoop,
    OpenLoop,
    OverloadPolicy,
    FleetMetrics,
    QueryClass,
    QueryStats,
    StreamingFleetMetrics,
    WorkloadSpec,
    fleet_from_trace,
    run_workload,
)


def overload_spec(policy=None, *, classes=None, **overrides):
    defaults = dict(
        classes=classes
        or (QueryClass(name="os", algorithm=Algorithm.ONE_SHOT),),
        num_clients=4,
        queries_per_client=2,
        arrivals=ClosedLoop(),
        seed=7,
        num_servers=4,
        images_per_server=2,
        overload=policy,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestOverloadPolicy:
    def test_default_is_null(self):
        assert OverloadPolicy().is_null()

    def test_any_limit_engages(self):
        assert not OverloadPolicy(max_concurrent=1).is_null()
        assert not OverloadPolicy(retry_budget=1).is_null()
        assert not OverloadPolicy(breaker_threshold=1).is_null()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_concurrent": 0},
            {"max_queue_depth": -1},
            {"shed_probability": 1.5},
            {"retry_budget": -1},
            {"retry_backoff": -1.0},
            {"breaker_threshold": 0},
            {"breaker_cooldown": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OverloadPolicy(**kwargs)

    def test_class_deadline_engages_without_policy(self):
        spec = overload_spec(
            classes=(
                QueryClass(
                    name="os", algorithm=Algorithm.ONE_SHOT, deadline=100.0
                ),
            )
        )
        assert spec.overload is None
        assert spec.overload_engaged

    def test_null_policy_does_not_engage(self):
        assert not overload_spec(OverloadPolicy()).overload_engaged

    def test_class_validation(self):
        with pytest.raises(ValueError):
            QueryClass(name="x", algorithm=Algorithm.ONE_SHOT, deadline=0.0)
        with pytest.raises(ValueError):
            QueryClass(
                name="x", algorithm=Algorithm.ONE_SHOT, slo_target=-1.0
            )


class TestAdmission:
    def test_concurrency_limit_sheds_excess(self):
        # Four closed-loop clients all arrive at t=0; one slot and no
        # queue means three first arrivals are shed on the spot.
        tracer = Tracer()
        result = run_workload(
            overload_spec(OverloadPolicy(max_concurrent=1)), tracer=tracer
        )
        # A shed resolves its slot instantly, so the three losing
        # clients burn through BOTH queries at t=0: 6 sheds, and only
        # the winning client's two queries run (sequentially).
        resilience = result.fleet["resilience"]
        assert resilience["shed"] == 6
        assert result.fleet["launched"] == 2
        sheds = [e for e in tracer.events if e["type"] == QUERY_SHED]
        assert len(sheds) == 6
        assert all(e["attempt"] == 0 for e in sheds)
        # Every scheduled slot is accounted for: shed or launched.
        assert resilience["shed"] + result.fleet["launched"] == 8
        assert 0.0 < resilience["shed_rate"] < 1.0

    def test_queue_absorbs_burst(self):
        tracer = Tracer()
        result = run_workload(
            overload_spec(
                OverloadPolicy(max_concurrent=1, max_queue_depth=8)
            ),
            tracer=tracer,
        )
        # The queue serializes the whole fleet through the single slot:
        # every query except the first waits its turn, nothing sheds.
        resilience = result.fleet["resilience"]
        assert resilience["shed"] == 0
        assert resilience["queued"] == 7
        assert resilience["queue_peak"] == 3
        assert result.fleet["completed"] == 8
        assert resilience["goodput"] > 0.0
        depths = [
            e["depth"] for e in tracer.events if e["type"] == QUERY_QUEUED
        ]
        assert depths == [1, 2, 3, 3, 3, 3, 3]
        assert max(depths) == resilience["queue_peak"]

    def test_shed_probability_is_seeded(self):
        policy = OverloadPolicy(
            max_concurrent=1, max_queue_depth=8, shed_probability=0.5
        )
        first = run_workload(overload_spec(policy)).fleet
        second = run_workload(overload_spec(policy)).fleet
        assert first == second
        resilience = first["resilience"]
        # The seeded coin splits saturated arrivals between queue and
        # shed; both outcomes must occur, and every scheduled slot ends
        # up either shed or launched.
        assert resilience["shed"] > 0
        assert resilience["queued"] > 0
        assert resilience["shed"] + first["launched"] == 8

    def test_unprotected_summary_has_no_resilience_block(self):
        assert "resilience" not in run_workload(overload_spec()).fleet


class TestDeadlines:
    def deadline_spec(self, policy=None, **overrides):
        classes = (
            QueryClass(
                name="os", algorithm=Algorithm.ONE_SHOT, deadline=50.0
            ),
        )
        return overload_spec(policy, classes=classes, **overrides)

    def test_deadline_aborts_truncate(self):
        # 50 s is far below any query's completion time: every launched
        # query aborts, and without a retry budget nothing resubmits.
        tracer = Tracer()
        result = run_workload(self.deadline_spec(), tracer=tracer)
        fleet = result.fleet
        assert fleet["completed"] == 0
        assert fleet["truncated"] == 8
        assert fleet["resilience"]["deadline_aborts"] == 8
        aborts = [
            e for e in tracer.events if e["type"] == QUERY_DEADLINE_ABORT
        ]
        assert len(aborts) == 8
        assert all(e["launched"] for e in aborts)
        assert all(e["waited"] == pytest.approx(50.0) for e in aborts)
        # The simulation drains instead of deadlocking on aborted queries.
        assert fleet["elapsed"] < 1000.0

    def test_queued_expiry_never_launches(self):
        # One slot, deep queue: the queue outlives the deadline, so
        # queued arrivals age out unlaunched when a slot frees up.
        tracer = Tracer()
        result = run_workload(
            self.deadline_spec(
                OverloadPolicy(max_concurrent=1, max_queue_depth=8)
            ),
            tracer=tracer,
        )
        aborts = [
            e for e in tracer.events if e["type"] == QUERY_DEADLINE_ABORT
        ]
        unlaunched = [e for e in aborts if not e["launched"]]
        assert len(unlaunched) == 4
        assert all(e["waited"] >= 50.0 for e in unlaunched)
        assert result.fleet["resilience"]["deadline_aborts"] == len(aborts)
        # Unlaunched expiries never reached the sink's per-query path.
        assert result.fleet["launched"] == 8 - len(unlaunched)

    def test_retry_budget_consumed_then_exhausted(self):
        tracer = Tracer()
        result = run_workload(
            self.deadline_spec(
                OverloadPolicy(retry_budget=1, retry_backoff=5.0)
            ),
            tracer=tracer,
        )
        resilience = result.fleet["resilience"]
        # Each of the 4 clients retries once (budget 1, charged on the
        # first abort); the retry aborts again and exhausts the budget.
        assert resilience["retries"] == 4
        assert resilience["retry_budget_exhausted"] == 8
        retries = [e for e in tracer.events if e["type"] == QUERY_RETRY]
        assert sorted(e["query_id"] for e in retries) == [
            "c0:0.r1",
            "c1:0.r1",
            "c2:0.r1",
            "c3:0.r1",
        ]
        assert all(e["wait"] == 5.0 for e in retries)
        exhausted = [
            e for e in tracer.events if e["type"] == RETRY_BUDGET_EXHAUSTED
        ]
        assert len(exhausted) == 8
        # Retries are extra launches on top of the 8 scheduled slots.
        assert result.fleet["launched"] == 12
        assert result.fleet["scheduled"] == 8

    def test_slo_attainment(self):
        classes = (
            QueryClass(
                name="fast",
                algorithm=Algorithm.ONE_SHOT,
                slo_target=1e9,
            ),
            QueryClass(
                name="slow",
                algorithm=Algorithm.ONE_SHOT,
                slo_target=1e-6,
            ),
        )
        result = run_workload(
            overload_spec(classes=classes, seed=3, queries_per_client=4)
        )
        per_class = result.fleet["resilience"]["per_class"]
        assert per_class["fast"]["slo_attainment"] == 1.0
        assert per_class["slow"]["slo_attainment"] == 0.0
        total = (
            per_class["fast"]["slo_eligible"]
            + per_class["slow"]["slo_eligible"]
        )
        assert total == result.fleet["completed"] == 16


class TestBreakers:
    def breaker_spec(self, **overrides):
        # h0 is down for almost the whole run; 60 s deadlines abort the
        # queries stuck on it and every abort blames the down host.
        classes = (
            QueryClass(
                name="os", algorithm=Algorithm.ONE_SHOT, deadline=60.0
            ),
        )
        plan = FaultPlan(
            host_crashes=(HostCrash("h0", start=5.0, end=4000.0),)
        )
        defaults = dict(
            classes=classes,
            num_clients=3,
            queries_per_client=3,
            arrivals=ClosedLoop(),
            seed=9,
            num_servers=4,
            images_per_server=2,
            fault_plan=plan,
            overload=OverloadPolicy(
                breaker_threshold=2, breaker_cooldown=200.0
            ),
        )
        defaults.update(overrides)
        return WorkloadSpec(**defaults)

    def test_breaker_opens_and_degrades(self):
        tracer = Tracer()
        result = run_workload(self.breaker_spec(), tracer=tracer)
        resilience = result.fleet["resilience"]
        assert resilience["breaker"]["opens"] >= 1
        assert "h0" in resilience["breaker"]["hosts"]
        # Queries admitted while the breaker is open replan degraded.
        assert resilience["degraded"] >= 1
        opens = [e for e in tracer.events if e["type"] == BREAKER_OPEN]
        assert opens and all(e["host"] == "h0" for e in opens)
        assert all("query_id" not in e for e in opens)  # fleet-level
        degraded_metas = [
            e
            for e in tracer.events
            if e["type"] == "run.meta" and e.get("degraded")
        ]
        assert len(degraded_metas) == resilience["degraded"]
        assert all(
            e["algorithm"] == Algorithm.DOWNLOAD_ALL.value
            for e in degraded_metas
        )

    def test_breaker_closes_after_cooldown(self):
        # Breakers close lazily at dispatch time, so the run needs
        # arrivals that keep coming past opened_at + cooldown.
        tracer = Tracer()
        run_workload(
            self.breaker_spec(queries_per_client=8), tracer=tracer
        )
        closes = [e for e in tracer.events if e["type"] == BREAKER_CLOSE]
        assert closes
        assert all(e["host"] == "h0" for e in closes)
        assert all(e["open_seconds"] >= 200.0 for e in closes)

    def test_no_injector_means_no_breakers(self):
        # Deadline aborts still happen without faults (the queries are
        # just slower than 60 s), but no host is ever *down*, so no
        # failure is attributed and no breaker opens.
        result = run_workload(self.breaker_spec(fault_plan=None))
        resilience = result.fleet["resilience"]
        assert resilience["deadline_aborts"] > 0
        assert resilience["breaker"]["opens"] == 0
        assert resilience["degraded"] == 0


class TestReconciliation:
    def chaos_spec(self, **overrides):
        classes = (
            QueryClass(
                name="gold",
                algorithm=Algorithm.GLOBAL,
                deadline=400.0,
                slo_target=250.0,
            ),
            QueryClass(name="bulk", algorithm=Algorithm.ONE_SHOT),
        )
        hosts = (*[f"h{i}" for i in range(4)], "client")
        defaults = dict(
            classes=classes,
            num_clients=6,
            queries_per_client=3,
            arrivals=OpenLoop(rate=0.02, process="poisson"),
            seed=11,
            num_servers=4,
            images_per_server=3,
            fault_plan=reference_chaos_plan(hosts, seed=3),
            overload=OverloadPolicy(
                max_concurrent=3,
                max_queue_depth=2,
                shed_probability=0.15,
                retry_budget=2,
                retry_backoff=45.0,
                breaker_threshold=2,
                breaker_cooldown=300.0,
            ),
        )
        defaults.update(overrides)
        return WorkloadSpec(**defaults)

    def test_full_policy_is_deterministic(self):
        first = run_workload(self.chaos_spec()).fleet
        second = run_workload(self.chaos_spec()).fleet
        assert first == second
        resilience = first["resilience"]
        assert resilience["shed"] > 0
        assert resilience["deadline_aborts"] > 0
        assert resilience["retries"] > 0

    def test_exact_live_matches_replay(self):
        tracer = Tracer()
        result = run_workload(self.chaos_spec(), tracer=tracer)
        assert fleet_from_trace(tracer.events) == result.fleet

    def test_streaming_live_matches_replay(self):
        tracer = Tracer()
        result = run_workload(
            self.chaos_spec(exact_metrics_threshold=0), tracer=tracer
        )
        headed = [
            {"type": "trace.header", "meta": dict(tracer.meta)},
            *tracer.events,
        ]
        assert fleet_from_trace(headed, exact_threshold=0) == result.fleet

    def test_streaming_matches_exact_counters(self):
        exact = run_workload(self.chaos_spec()).fleet
        streaming = run_workload(
            self.chaos_spec(exact_metrics_threshold=0)
        ).fleet
        assert exact["resilience"] == streaming["resilience"]


class TestProtectedTail:
    """Under chaos, the full policy answers every completed query within
    the class deadline of its arrival, so the completed-query p99 stays
    under the deadline, while the same fleet wide open blows past it."""

    DEADLINE = 700.0

    def test_protected_p99_within_deadline(self):
        classes = tuple(
            QueryClass(
                name=algorithm.value,
                algorithm=algorithm,
                deadline=self.DEADLINE,
                slo_target=600.0,
            )
            for algorithm in (Algorithm.GLOBAL, Algorithm.ONE_SHOT)
        )
        hosts = (*[f"h{i}" for i in range(4)], "client")
        protected = WorkloadSpec(
            classes=classes,
            num_clients=4,
            queries_per_client=2,
            arrivals=OpenLoop(rate=0.02, process="poisson"),
            seed=11,
            num_servers=4,
            images_per_server=3,
            fault_plan=reference_chaos_plan(hosts, seed=3),
            overload=OverloadPolicy(
                max_concurrent=3,
                max_queue_depth=4,
                shed_probability=0.05,
                retry_budget=1,
                retry_backoff=60.0,
                breaker_threshold=2,
                breaker_cooldown=600.0,
            ),
        )
        unprotected = replace(
            protected,
            overload=None,
            classes=tuple(
                replace(qclass, deadline=None, slo_target=None)
                for qclass in classes
            ),
        )
        tracer = Tracer()
        fleet = run_workload(protected, tracer=tracer).fleet
        # A query waits in the admission queue from its arrival; one
        # admitted at once arrives when it is issued.
        arrived = {
            e["query_id"]: e["t"]
            for e in tracer.events
            if e["type"] == QUERY_QUEUED
        }
        for query in fleet["queries"]:
            if query["latency"] is not None:
                arrival = arrived.get(query["query_id"], query["issued_at"])
                response = query["issued_at"] + query["latency"] - arrival
                assert response <= self.DEADLINE, query
        protected_p99 = fleet["latency"]["p99"]
        open_p99 = run_workload(unprotected).fleet["latency"]["p99"]
        assert protected_p99 <= self.DEADLINE < open_p99, (
            protected_p99, open_p99
        )


class TestResilienceCounters:
    """The sink's ``resilience`` block, fed through its public API."""

    def test_merge_is_order_invariant(self):
        def sample(n):
            sink = FleetMetrics()
            for i in range(n):
                sink.fleet_event(QUERY_SHED, {"query_class": "a"})
                sink.fleet_event(QUERY_QUEUED, {"depth": n})
                sink.fleet_event(BREAKER_OPEN, {"host": f"h{n}"})
                qid = f"c{n}:{i}"
                sink.query_started(qid, "b", 0.0, degraded=i == 0)
                sink.query_finished(
                    QueryStats(
                        query_id=qid, class_name="b", algorithm="one-shot",
                        issued_at=0.0, completion_time=10.0 * n,
                        images_delivered=1, truncated=False, relocations=0,
                        aborted_relocations=0, bytes_on_wire=1.0,
                    ),
                    slo=15.0,
                )
            return sink

        import itertools

        blocks = set()
        for order in itertools.permutations([1, 2, 3]):
            merged = FleetMetrics()
            for n in order:
                merged.merge(sample(n))
            blocks.add(
                json.dumps(merged.summary(100.0)["resilience"], sort_keys=True)
            )
        assert len(blocks) == 1
        block = json.loads(blocks.pop())
        assert block["shed"] == 6 and block["queue_peak"] == 3
        assert block["breaker"]["hosts"] == {"h1": 1, "h2": 2, "h3": 3}
        assert block["degraded"] == 3
        assert block["per_class"]["b"]["slo_eligible"] == 6
        assert block["per_class"]["b"]["slo_attainment"] == 1 / 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FleetMetrics().fleet_event("bogus", {})

    def test_dormant_counters_not_engaged(self):
        summary = FleetMetrics().summary(10.0)
        assert "resilience" not in summary
        assert "fleet" not in summary


class TestFaultPlanValidation:
    def test_workload_rejects_unknown_hosts(self):
        # Regression: install_faults validates the plan against the
        # network's real host set before installing anything.
        plan = FaultPlan(
            host_crashes=(HostCrash("nonexistent", start=1.0, end=2.0),)
        )
        with pytest.raises(ValueError, match="unknown hosts"):
            run_workload(overload_spec(fault_plan=plan))

    def test_chaos_scale_one_is_the_classic_plan(self):
        hosts = ("h0", "h1", "h2", "client")
        assert (
            reference_chaos_plan(hosts, seed=5).to_dict()
            == reference_chaos_plan(hosts, seed=5, scale=1).to_dict()
        )

    def test_chaos_scale_adds_staggered_waves(self):
        hosts = ("h0", "h1", "h2", "client")
        base = reference_chaos_plan(hosts, seed=5)
        scaled = reference_chaos_plan(hosts, seed=5, scale=3)
        assert len(scaled.link_outages) == len(base.link_outages) + 4
        assert len(scaled.host_crashes) == len(base.host_crashes) + 2
        # Extra waves land strictly later, deepening the chaos.
        extra = scaled.link_outages[len(base.link_outages):]
        assert min(o.start for o in extra) >= 1800.0
        with pytest.raises(ValueError):
            reference_chaos_plan(hosts, scale=0)
