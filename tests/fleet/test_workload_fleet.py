"""Fleet coordination end to end: engine wiring, accounting, replay."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine.config import Algorithm
from repro.obs import Tracer
from repro.obs.events import FLEET_CLAIM, FLEET_DENY, FLEET_GRANT, FLEET_REBALANCE
from repro.workload import (
    FleetMetrics,
    FleetPolicy,
    OpenLoop,
    QueryClass,
    QueryStats,
    StreamingFleetMetrics,
    WorkloadSpec,
    fleet_from_trace,
    run_workload,
)


def contended_spec(fleet, **overrides):
    """Replanning queries under tight relocation budgets: grants and
    denies both fire (asserted below), exercising every counter."""
    defaults = dict(
        classes=(
            QueryClass(
                name="g",
                algorithm=Algorithm.GLOBAL,
                weight=2.0,
                slo_target=2000.0,
                overrides={"relocation_period": 60.0},
            ),
            QueryClass(
                name="l",
                algorithm=Algorithm.LOCAL,
                overrides={"relocation_period": 60.0},
            ),
        ),
        num_clients=3,
        queries_per_client=2,
        arrivals=OpenLoop(rate=1 / 120.0),
        seed=17,
        num_servers=4,
        images_per_server=24,
        fleet=fleet,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


TIGHT = FleetPolicy(
    mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
)


def stream_digest(events) -> str:
    """Content hash of an obs stream with run-relative message uids
    (same normalization as the defaults-equivalence golden)."""
    uids = sorted({e["uid"] for e in events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    normalized = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e for e in events
    ]
    return hashlib.sha256(
        json.dumps(normalized, sort_keys=True).encode()
    ).hexdigest()


class TestSpecWiring:
    def test_fleet_engaged_property(self):
        assert not contended_spec(None).fleet_engaged
        assert contended_spec(TIGHT).fleet_engaged

    def test_rejects_non_policy(self):
        with pytest.raises(ValueError, match="FleetPolicy"):
            contended_spec("coordinated")


class TestDefaultsOff:
    def test_no_fleet_block_and_identical_runs(self):
        # fleet=None must not leave any trace of the coordination layer:
        # no summary block, and the whole run (summary AND obs stream)
        # bit-identical across repetitions.
        tracer_a, tracer_b = Tracer(), Tracer()
        a = run_workload(contended_spec(None), tracer=tracer_a)
        b = run_workload(contended_spec(None), tracer=tracer_b)
        assert "fleet" not in a.fleet
        assert a.fleet == b.fleet
        assert stream_digest(tracer_a.events) == stream_digest(
            tracer_b.events
        )
        assert not any(
            e["type"].startswith("fleet.") for e in tracer_a.events
        )


class TestCoordinatedRun:
    def test_counters_engage_and_reconcile_exact(self):
        tracer = Tracer()
        result = run_workload(contended_spec(TIGHT), tracer=tracer)
        block = result.fleet["fleet"]
        assert block["claims"] == 6
        assert block["grants"] > 0
        assert block["denies"] > 0
        assert block["denied_links"]  # bottleneck histogram populated
        assert block["planner_rounds"] > 0
        assert block["planner_candidates"] > 0
        assert block["planner_links_queried"] > 0
        assert 0.0 <= block["grant_rate"] <= 1.0
        # Replay of the same trace rebuilds the identical summary.
        assert fleet_from_trace(tracer.events) == result.fleet

    def test_streaming_replay_reconciles(self):
        tracer = Tracer()
        result = run_workload(
            contended_spec(TIGHT, exact_metrics_threshold=0), tracer=tracer
        )
        replay = fleet_from_trace(
            tracer.events, metrics=StreamingFleetMetrics(3)
        )
        assert replay["fleet"] == result.fleet["fleet"]
        assert replay["per_class"] == result.fleet["per_class"]
        assert replay == result.fleet

    def test_fleet_run_is_deterministic(self):
        tracer_a, tracer_b = Tracer(), Tracer()
        a = run_workload(contended_spec(TIGHT), tracer=tracer_a)
        b = run_workload(contended_spec(TIGHT), tracer=tracer_b)
        assert a.fleet == b.fleet
        assert stream_digest(tracer_a.events) == stream_digest(
            tracer_b.events
        )

    def test_fair_mode_runs_and_reconciles(self):
        fair = FleetPolicy(
            mode="fair", link_tokens=1.0, token_refill_seconds=600.0
        )
        tracer = Tracer()
        result = run_workload(contended_spec(fair), tracer=tracer)
        assert result.fleet["fleet"]["claims"] == 6
        assert fleet_from_trace(tracer.events) == result.fleet

    def test_generous_budget_changes_nothing_but_grants(self):
        # With effectively unlimited tokens every proposal is granted:
        # per-query behaviour matches what residual-only planning does.
        generous = FleetPolicy(link_tokens=1e9, token_refill_seconds=1.0)
        result = run_workload(contended_spec(generous))
        block = result.fleet["fleet"]
        assert block["denies"] == 0
        assert block["grant_rate"] == 1.0


def finished_with_effort(query_id, rounds, candidates, links):
    """A finished query's stats carrying planner-effort totals."""
    return QueryStats(
        query_id=query_id, class_name="g", algorithm="global",
        issued_at=0.0, completion_time=1.0, images_delivered=1,
        truncated=False, relocations=0, aborted_relocations=0,
        bytes_on_wire=0.0, planner_rounds=rounds,
        planner_candidates=candidates, planner_links_queried=links,
    )


class TestCounters:
    """The sink's ``fleet`` block, fed through its public API."""

    def test_merge_is_commutative(self):
        def build(order, effort):
            sink = FleetMetrics()
            for event_type, fields in order:
                sink.fleet_event(event_type, fields)
            sink.query_finished(finished_with_effort(*effort))
            return sink

        events = [
            (FLEET_CLAIM, dict(query_class="g", links=2)),
            (FLEET_GRANT, dict(query_class="g", moves=3)),
            (FLEET_DENY, dict(query_class="l", bottleneck="h0|h1")),
            (FLEET_DENY, dict(query_class="g", bottleneck="h0|h1")),
            (FLEET_REBALANCE, dict(query_class="g")),
        ]
        a = ("c0:0", 5, 100, 20)
        b = ("c1:0", 7, 50, 10)
        ab = build(events[:2], a).merge(build(events[2:], b))
        ba = build(events[2:], b).merge(build(events[:2], a))
        block = ab.summary(1.0)["fleet"]
        assert block == ba.summary(1.0)["fleet"]
        assert block["denied_links"] == {"h0|h1": 2}
        assert block["granted_moves"] == 3
        assert block["planner_rounds"] == 12

    def test_effort_alone_does_not_engage(self):
        sink = FleetMetrics()
        sink.query_finished(finished_with_effort("c0:0", 10, 200, 40))
        assert "fleet" not in sink.summary(1.0)
        sink.fleet_event(FLEET_CLAIM, {})
        assert sink.summary(1.0)["fleet"]["planner_rounds"] == 10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FleetMetrics().fleet_event("fleet.barter", {})


def test_denied_plan_costs_the_initial_placement_exactly(monkeypatch):
    """A denied plan reports the search's start cost, which must equal
    the scalar price of ``initial`` under the same residual view."""
    from tests.oracles.scalar_pricer import critical_path
    from repro.fleet.coordinator import FleetCoordinator
    from repro.fleet.planner import FleetPlanner

    residuals, denials, checked = [], [], []
    wrap_residual = FleetCoordinator.residual_estimator
    wrap_arbitrate = FleetCoordinator.arbitrate
    wrap_plan = FleetPlanner.plan

    def residual_estimator(self, query_id, raw):
        residuals.append(wrap_residual(self, query_id, raw))
        return residuals[-1]

    def arbitrate(self, *args, **kwargs):
        granted = wrap_arbitrate(self, *args, **kwargs)
        denials.append(not granted)
        return granted

    def plan(self, estimator, initial, **kwargs):
        del residuals[:], denials[:]
        result = wrap_plan(self, estimator, initial, **kwargs)
        if any(denials):
            (residual,) = residuals
            assert result.placement == initial
            assert result.cost == critical_path(
                self.inner.tree, initial, self.inner.cost_model, residual
            ).cost
            checked.append(result.cost)
        return result

    monkeypatch.setattr(FleetCoordinator, "residual_estimator", residual_estimator)
    monkeypatch.setattr(FleetCoordinator, "arbitrate", arbitrate)
    monkeypatch.setattr(FleetPlanner, "plan", plan)
    result = run_workload(contended_spec(TIGHT))
    assert result.fleet["fleet"]["denies"] > 0
    assert checked
