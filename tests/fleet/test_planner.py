"""FleetPlanner: residual-bandwidth planning and arbitrated relocation."""

from __future__ import annotations

import pytest

from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.tree import complete_binary_tree
from repro.fleet import FleetCoordinator, FleetPolicy
from repro.fleet.planner import FleetPlanner
from repro.obs import Tracer
from repro.obs.events import FLEET_DENY, FLEET_GRANT, PLANNER_SEARCH
from repro.placement import (
    GlobalPlanner,
    LocalRulesPlanner,
    download_all_placement,
    planner_for,
)

HOSTS = ["h0", "h1", "h2", "h3", "client"]


def make_problem():
    tree = complete_binary_tree(4)
    sizes = expected_output_sizes(tree, 100 * 1024.0, 0.1)
    cost_model = CostModel(tree, sizes, startup_cost=1.0, disk_rate=1e9)
    server_hosts = {
        server.node_id: f"h{i}" for i, server in enumerate(tree.servers())
    }
    initial = download_all_placement(tree, server_hosts, "client")
    return tree, cost_model, initial


def estimator(a: str, b: str) -> float:
    return 50 * 1024.0


def make_planner(stage="controller", **policy_kwargs):
    tree, cost_model, initial = make_problem()
    inner = GlobalPlanner(tree, HOSTS, cost_model)
    coordinator = FleetCoordinator(
        FleetPolicy(**policy_kwargs), clock=lambda: 0.0
    )
    planner = FleetPlanner(inner, coordinator, "q", stage=stage)
    return planner, coordinator, initial


class TestPlan:
    def test_grant_keeps_inner_placement(self):
        planner, _, initial = make_planner()
        inner_result = planner.inner.plan(estimator, initial)
        result = planner.plan(estimator, initial)
        assert result.algorithm == "fleet-coordinated"
        assert (
            result.placement.as_dict() == inner_result.placement.as_dict()
        )

    def test_deny_collapses_to_initial(self):
        # Zero headroom: a bucket drained by a previous grant denies the
        # follow-up proposal, which must come back as "no change".
        planner, coordinator, initial = make_planner(
            link_tokens=1.0, token_refill_seconds=1e6
        )
        first = planner.plan(estimator, initial)
        assert first.placement != initial
        # Same query, next epoch (past the ruling cache): inner proposes
        # the same move but every bucket it needs is drained.
        coordinator._last_ruling.clear()
        tracer = Tracer()
        second = planner.plan(estimator, initial, tracer=tracer)
        assert second.placement == initial
        kinds = [e["type"] for e in tracer.events]
        assert FLEET_DENY in kinds
        # The relabeled result still reports the inner search's effort.
        assert second.rounds > 0
        assert second.candidates_evaluated > 0

    def test_initial_stage_never_arbitrates(self):
        planner, coordinator, initial = make_planner(
            stage="initial", link_tokens=1.0, token_refill_seconds=1e6
        )
        tracer = Tracer()
        result = planner.plan(estimator, initial, tracer=tracer)
        kinds = [e["type"] for e in tracer.events]
        assert FLEET_GRANT not in kinds and FLEET_DENY not in kinds
        assert result.placement != initial  # residual planning still ran
        assert coordinator._buckets == {}  # nothing charged

    def test_emits_exactly_one_search_event(self):
        planner, _, initial = make_planner()
        tracer = Tracer()
        planner.plan(estimator, initial, tracer=tracer, now=7.0)
        searches = [
            e for e in tracer.events if e["type"] == PLANNER_SEARCH
        ]
        assert len(searches) == 1
        assert searches[0]["algorithm"] == "fleet-coordinated"
        assert searches[0]["t"] == 7.0

    def test_forwards_inner_attributes(self):
        planner, _, _ = make_planner()
        assert planner.cost_model is planner.inner.cost_model
        assert planner.tree is planner.inner.tree

    def test_registry_factories(self):
        tree, cost_model, initial = make_problem()
        for name in ("fleet-coordinated", "fleet-fair"):
            planner = planner_for(name, tree, HOSTS, cost_model)
            assert planner.name == name
            result = planner.plan(estimator, initial)
            assert result.algorithm == name

    def test_rejects_unknown_stage(self):
        tree, cost_model, _ = make_problem()
        inner = GlobalPlanner(tree, HOSTS, cost_model)
        coordinator = FleetCoordinator(FleetPolicy())
        with pytest.raises(ValueError, match="stage"):
            FleetPlanner(inner, coordinator, "q", stage="bogus")


class TestDecide:
    def make_local(self, **policy_kwargs):
        tree, cost_model, _ = make_problem()
        inner = LocalRulesPlanner(cost_model)
        coordinator = FleetCoordinator(
            FleetPolicy(**policy_kwargs), clock=lambda: 0.0
        )
        return FleetPlanner(inner, coordinator, "q"), coordinator

    def kwargs(self):
        # One dominant producer on h0 feeding a client-resident
        # operator with a tiny output: the bare rule wants to move the
        # operator next to the data.
        return dict(
            current_host="client",
            producer_hosts=["h0", "h1"],
            producer_sizes=[1e8, 1e3],
            consumer_host="client",
            output_size=1e3,
            estimator=estimator,
        )

    def test_granted_move_passes_through(self):
        planner, _ = self.make_local()
        bare = planner.inner.decide(**self.kwargs())
        assert bare.should_move
        decision = planner.decide(**self.kwargs())
        assert decision.should_move
        assert decision.best_site == bare.best_site

    def test_denied_move_collapses_to_stay(self):
        planner, coordinator = self.make_local(
            link_tokens=1.0, token_refill_seconds=1e6
        )
        first = planner.decide(**self.kwargs())
        assert first.should_move
        # Drain confirmed; the next epoch's identical wish is denied and
        # must read as "stay put" without inventing costs.
        second = planner.decide(**self.kwargs())
        assert not second.should_move
        assert second.best_site == "client"
        assert second.best_cost == second.current_cost
