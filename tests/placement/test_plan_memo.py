"""The vectorized planner's one-entry memo on (hosts, snapshot, placement)."""

import random

from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.critical import BatchMoveEvaluator
from repro.dataflow.tree import complete_binary_tree
from repro.monitor.system import MonitoringSystem
from repro.net.host import Host
from repro.net.link import Link
from repro.net.network import Network
from repro.obs import Tracer
from repro.obs.events import MONITOR_ESTIMATE, PLANNER_SEARCH
from repro.placement import GlobalPlanner, OneShotPlanner, download_all_placement
from repro.traces import constant_trace

TREE = complete_binary_tree(4)
SERVER_HOSTS = {f"s{i}": f"h{i}" for i in range(4)}
HOSTS = [f"h{i}" for i in range(4)] + ["client"]


def model():
    return CostModel(TREE, expected_output_sizes(TREE, 128 * 1024, 0.25))


def start():
    return download_all_placement(TREE, SERVER_HOSTS, "client")


def table_estimator(seed, hosts=HOSTS + ["spare"]):
    """A pure estimator over a seeded table of canonical-pair rates."""
    rng = random.Random(seed)
    table = {
        (a, b): rng.uniform(5e3, 5e5)
        for i, a in enumerate(sorted(hosts))
        for b in sorted(hosts)[i + 1 :]
    }

    def estimate(a, b):
        if a == b:
            return float("inf")
        return table[(a, b) if a < b else (b, a)]

    estimate.table = table
    return estimate


def fresh(estimator, initial):
    return OneShotPlanner(TREE, HOSTS, model()).plan(estimator, initial)


def count_searches(monkeypatch):
    """Count BatchMoveEvaluator constructions (one per un-memoized search)."""
    built = []
    original = BatchMoveEvaluator.__init__

    def init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BatchMoveEvaluator, "__init__", init)
    return built


class TestMemoHits:
    def test_hit_returns_result_equal_to_fresh_search(self, monkeypatch):
        built = count_searches(monkeypatch)
        planner = OneShotPlanner(TREE, HOSTS, model())
        estimator = table_estimator(1)
        first = planner.plan(estimator, start())
        second = planner.plan(estimator, start())
        assert len(built) == 1
        assert second is first
        assert second == fresh(estimator, start())

    def test_hit_from_an_equal_view_built_anew(self, monkeypatch):
        # The fleet layer hands every call a fresh estimator object; only
        # the floored values matter.
        built = count_searches(monkeypatch)
        planner = OneShotPlanner(TREE, HOSTS, model())
        first = planner.plan(table_estimator(2), start())
        second = planner.plan(table_estimator(2), start())
        assert len(built) == 1
        assert second is first

    def test_floored_values_share_a_key(self, monkeypatch):
        built = count_searches(monkeypatch)
        cm = model()
        planner = OneShotPlanner(TREE, HOSTS, cm)
        below = cm.min_bandwidth / 4
        first = planner.plan(lambda a, b: below, start())
        second = planner.plan(lambda a, b: below / 2, start())
        assert len(built) == 1
        assert second is first

    def test_hit_emits_identical_planner_search(self):
        planner = OneShotPlanner(TREE, HOSTS, model())
        estimator = table_estimator(3)
        tracer = Tracer()
        planner.plan(estimator, start(), tracer=tracer, now=5.0)
        planner.plan(estimator, start(), tracer=tracer, now=5.0)
        searches = [e for e in tracer.events if e["type"] == PLANNER_SEARCH]
        assert len(searches) == 2
        assert searches[0] == searches[1]

    def test_global_planner_warm_start_hits(self, monkeypatch):
        built = count_searches(monkeypatch)
        planner = GlobalPlanner(TREE, HOSTS, model())
        estimator = table_estimator(4)
        warm = planner.plan(estimator, start()).placement
        a = planner.plan(estimator, warm)
        b = planner.plan(estimator, warm)
        assert len(built) == 2
        assert a == b
        assert a.placement == fresh(estimator, warm).placement


class TestMemoMisses:
    def test_one_pair_bandwidth_change_misses(self, monkeypatch):
        built = count_searches(monkeypatch)
        planner = OneShotPlanner(TREE, HOSTS, model())
        estimator = table_estimator(5)
        first = planner.plan(estimator, start())
        estimator.table[("client", "h0")] *= 3.0
        second = planner.plan(estimator, start())
        assert len(built) == 2
        assert second is not first
        assert second == fresh(estimator, start())

    def test_placement_change_misses(self, monkeypatch):
        built = count_searches(monkeypatch)
        planner = OneShotPlanner(TREE, HOSTS, model())
        estimator = table_estimator(6)
        first = planner.plan(estimator, start())
        op = TREE.operators()[0].node_id
        moved = start().with_move(op, "h1")
        second = planner.plan(estimator, moved)
        assert len(built) == 2
        # The one entry now holds the moved start: the old one misses.
        assert planner.plan(estimator, start()) is not first
        assert len(built) == 3
        assert second == fresh(estimator, moved)

    def test_host_set_change_misses(self, monkeypatch):
        # A start placement on a host outside the planner's list widens
        # the evaluator's host universe, and with it the snapshot.
        built = count_searches(monkeypatch)
        planner = OneShotPlanner(TREE, HOSTS, model())
        estimator = table_estimator(7)
        planner.plan(estimator, start())
        op = TREE.operators()[0].node_id
        wider = start().with_move(op, "spare")
        result = planner.plan(estimator, wider)
        assert len(built) == 2
        assert result == fresh(estimator, wider)


def monitored_network(env, tracer):
    net = Network(env)
    for name in HOSTS:
        net.add_host(Host(env, name))
    for i, a in enumerate(HOSTS):
        for b in HOSTS[i + 1 :]:
            rate = 2e4 * (1 + (i + len(b)) % 3)
            net.add_link(Link(a, b, constant_trace(rate), startup_cost=0.0))
    monitoring = MonitoringSystem(net, tracer=tracer)
    monitoring.seed_snapshot(0.0)
    return monitoring


class TestMonitoringSnapshot:
    def test_one_estimate_per_pair(self, env):
        tracer = Tracer()
        monitoring = monitored_network(env, tracer)
        planner = OneShotPlanner(TREE, HOSTS, model())
        results, estimates = [], []
        for _ in range(2):
            before = len(tracer.events)
            view = monitoring.snapshot("client", HOSTS, 0.0)
            results.append(planner.plan(view, start()))
            estimates.append(
                [
                    e
                    for e in tracer.events[before:]
                    if e["type"] == MONITOR_ESTIMATE
                ]
            )
        # The second plan sees an equal view and hits the memo, but its
        # snapshot still read the monitoring view once per pair.
        assert results[1] is results[0]
        hosts = sorted(HOSTS)
        pairs = {(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1 :]}
        for events, result in zip(estimates, results):
            consulted = [(e["a"], e["b"]) for e in events]
            assert sorted(consulted) == sorted(pairs)
            assert set(result.links_queried) <= pairs
