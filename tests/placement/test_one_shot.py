"""One-shot planner behaviour."""

import pytest

from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.critical import placement_cost
from repro.dataflow.tree import complete_binary_tree
from repro.placement import OneShotPlanner, download_all_placement, one_shot

TREE = complete_binary_tree(8)
SERVER_HOSTS = {f"s{i}": f"h{i}" for i in range(8)}
HOSTS = [f"h{i}" for i in range(8)] + ["client"]


def model():
    sizes = expected_output_sizes(TREE, 128 * 1024, 0.25)
    return CostModel(TREE, sizes)


def flat(rate):
    return lambda a, b: float("inf") if a == b else rate


def download_all():
    return download_all_placement(TREE, SERVER_HOSTS, "client")


class TestOneShot:
    def test_validation(self):
        with pytest.raises(ValueError):
            OneShotPlanner(TREE, [], model())

    def test_never_worse_than_initial(self):
        planner = OneShotPlanner(TREE, HOSTS, model())
        initial = download_all()
        estimator = flat(10 * 1024.0)
        result = planner.plan(estimator, initial)
        initial_cost = placement_cost(TREE, initial, model(), estimator)
        assert result.cost <= initial_cost

    def test_escapes_all_at_client_congestion(self):
        """With uniform links, download-all serializes 8 transfers at the
        client; the planner must distribute operators to relieve it."""
        planner = OneShotPlanner(TREE, HOSTS, model())
        result = planner.plan(flat(10 * 1024.0), download_all())
        off_client = [
            op.node_id
            for op in TREE.operators()
            if result.placement.host_of(op.node_id) != "client"
        ]
        assert len(off_client) >= 4
        initial_cost = placement_cost(TREE, download_all(), model(), flat(10 * 1024.0))
        assert result.cost < 0.6 * initial_cost

    def test_result_cost_is_consistent(self):
        planner = OneShotPlanner(TREE, HOSTS, model())
        estimator = flat(20 * 1024.0)
        result = planner.plan(estimator, download_all())
        assert result.cost == pytest.approx(
            placement_cost(TREE, result.placement, model(), estimator)
        )

    def test_deterministic(self):
        planner = OneShotPlanner(TREE, HOSTS, model())
        a = planner.plan(flat(10 * 1024.0), download_all())
        b = planner.plan(flat(10 * 1024.0), download_all())
        assert a.placement == b.placement
        assert a.cost == b.cost

    def test_servers_and_client_stay_pinned(self):
        planner = OneShotPlanner(TREE, HOSTS, model())
        result = planner.plan(flat(10 * 1024.0), download_all())
        for server, host in SERVER_HOSTS.items():
            assert result.placement.host_of(server) == host
        assert result.placement.host_of("client") == "client"

    def test_avoids_slow_hosts(self):
        """A host whose links are all terrible must not receive operators."""

        def estimator(a, b):
            if a == b:
                return float("inf")
            if "h7" in (a, b):
                return 64.0  # almost unusable
            return 20 * 1024.0

        planner = OneShotPlanner(TREE, HOSTS, model())
        result = planner.plan(estimator, download_all())
        for op in TREE.operators():
            if op.node_id != "op3":  # op3 consumes s7's data either way
                assert result.placement.host_of(op.node_id) != "h7"

    def test_links_queried_recorded(self):
        planner = OneShotPlanner(TREE, HOSTS, model())
        result = planner.plan(flat(10 * 1024.0), download_all())
        assert result.links_queried
        for a, b in result.links_queried:
            assert a < b

    def test_rounds_bounded(self, monkeypatch):
        monkeypatch.setattr(one_shot, "MAX_ROUNDS", 1)
        planner = OneShotPlanner(TREE, HOSTS, model())
        result = planner.plan(flat(10 * 1024.0), download_all())
        assert result.rounds == 1

    def test_warm_start_keeps_good_placement(self):
        planner = OneShotPlanner(TREE, HOSTS, model())
        estimator = flat(10 * 1024.0)
        first = planner.plan(estimator, download_all())
        second = planner.plan(estimator, first.placement)
        assert second.cost <= first.cost
