"""Every registered planner with a ``plan`` conforms to the Planner
protocol; the local algorithm's planner only decides per operator."""

from __future__ import annotations

import math

import pytest

import repro.fleet  # noqa: F401  — registers the fleet-* planner family
from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.tree import complete_binary_tree
from repro.obs import Tracer
from repro.obs.events import PLANNER_SEARCH
from repro.placement import (
    DownloadAllPlanner,
    GlobalPlanner,
    LocalRulesPlanner,
    OneShotPlanner,
    Planner,
    PlanResult,
    choose_local_site,
    download_all_placement,
    planner_for,
    planner_registry,
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


#: Every registered name but ``"local"``, which only decides.
PLANNING_NAMES = [name for name in planner_registry() if name != "local"]


@pytest.mark.parametrize("name", PLANNING_NAMES)
class TestProtocolConformance:
    """Runs over every ``planner_for`` name with a ``plan`` — the
    one-shot, global and download-all algorithms plus the
    fleet-coordinated wrappers."""

    def test_factory_builds_conforming_planner(self, name):
        tree, cost_model, initial = make_problem()
        planner = planner_for(name, tree, HOSTS, cost_model)
        assert isinstance(planner, Planner)
        assert planner.name == name

    def test_plan_returns_labelled_result(self, name):
        tree, cost_model, initial = make_problem()
        planner = planner_for(name, tree, HOSTS, cost_model)
        result = planner.plan(estimator, initial)
        assert isinstance(result, PlanResult)
        assert result.algorithm == name
        assert math.isfinite(result.cost)
        assert set(result.placement.as_dict()) == set(initial.as_dict())

    def test_plan_is_deterministic(self, name):
        tree, cost_model, initial = make_problem()
        planner = planner_for(name, tree, HOSTS, cost_model)
        a = planner.plan(estimator, initial)
        b = planner.plan(estimator, initial)
        assert a.placement.as_dict() == b.placement.as_dict()
        assert a.cost == b.cost

    def test_plan_emits_one_search_event(self, name):
        tree, cost_model, initial = make_problem()
        planner = planner_for(name, tree, HOSTS, cost_model)
        tracer = Tracer()
        planner.plan(estimator, initial, tracer=tracer, now=5.0)
        searches = [
            e for e in tracer.events if e["type"] == PLANNER_SEARCH
        ]
        assert len(searches) == 1
        assert searches[0]["algorithm"] == name
        assert searches[0]["t"] == 5.0

    def test_fresh_factories_agree(self, name):
        """Two independently built planners produce identical plans —
        no hidden cross-instance state (fleet planners carry a private
        coordinator each)."""
        tree, cost_model, initial = make_problem()
        a = planner_for(name, tree, HOSTS, cost_model).plan(estimator, initial)
        b = planner_for(name, tree, HOSTS, cost_model).plan(estimator, initial)
        assert a.placement.as_dict() == b.placement.as_dict()
        assert a.cost == b.cost


class TestFactory:
    def test_accepts_plain_strings(self):
        tree, cost_model, _ = make_problem()
        assert isinstance(
            planner_for("one-shot", tree, HOSTS, cost_model), OneShotPlanner
        )
        assert isinstance(
            planner_for("global", tree, HOSTS, cost_model), GlobalPlanner
        )
        assert isinstance(
            planner_for("local", tree, HOSTS, cost_model), LocalRulesPlanner
        )
        assert isinstance(
            planner_for("download-all", tree, HOSTS, cost_model),
            DownloadAllPlanner,
        )

    def test_unknown_algorithm_raises(self):
        tree, cost_model, _ = make_problem()
        with pytest.raises(ValueError, match="unknown placement algorithm"):
            planner_for("simulated-annealing", tree, HOSTS, cost_model)

    def test_download_all_plan_is_identity(self):
        tree, cost_model, initial = make_problem()
        planner = planner_for("download-all", tree, HOSTS, cost_model)
        result = planner.plan(estimator, initial)
        assert result.placement is initial
        assert result.rounds == 0


class TestLocalPlanner:
    def test_decide_is_the_local_rule_and_there_is_no_plan(self):
        """``"local"`` decides one operator at a time under the cost
        model's startup cost, and has no whole-tree ``plan``."""
        tree, cost_model, _ = make_problem()
        planner = planner_for("local", tree, HOSTS, cost_model)
        assert not hasattr(planner, "plan")
        case = dict(
            current_host="client",
            producer_hosts=["h0", "h1"],
            producer_sizes=[1e8, 1e3],
            consumer_host="client",
            output_size=1e3,
            estimator=estimator,
            extra_candidates=["h2"],
            compute_seconds=0.5,
        )
        decision = planner.decide(**case)
        assert decision == choose_local_site(
            startup_cost=cost_model.startup_cost, **case
        )
        assert decision.should_move
