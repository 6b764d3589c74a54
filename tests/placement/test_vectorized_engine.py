"""The batch-priced planner search: equal plans to the scalar oracle, and
one read of the estimator per ordered host pair."""

import random
from dataclasses import replace

import pytest

import repro.fleet  # noqa: F401  — registers the fleet-* planner family
from repro.dataflow.cost import CostModel
from repro.dataflow.tree import complete_binary_tree, left_deep_tree
from repro.placement import planner_for
from repro.placement.download_all import download_all_placement
from repro.placement.global_planner import GlobalPlanner
from repro.placement.one_shot import OneShotPlanner
from tests.oracles.scalar_planner import ScalarOneShotPlanner


def random_setup(rng, with_replicas=False):
    n = rng.choice([2, 3, 4, 5, 8])
    shape = rng.choice(["binary", "left-deep"])
    tree = complete_binary_tree(n) if shape == "binary" else left_deep_tree(n)
    hosts = [f"h{i}" for i in range(n)] + ["client"]
    sizes = {node.node_id: rng.uniform(1e4, 1e6) for node in tree.nodes()}
    model = CostModel(tree, sizes, startup_cost=0.05, disk_rate=3e6)
    server_hosts = {
        s.node_id: hosts[i] for i, s in enumerate(tree.servers())
    }
    start = download_all_placement(tree, server_hosts, "client")
    replicas = None
    if with_replicas:
        replicas = {
            s: (server_hosts[s], rng.choice(hosts)) for s in server_hosts
        }

    bw = {}

    def estimator(a, b):
        key = (a, b)  # asymmetric estimator
        if key not in bw:
            bw[key] = rng.uniform(1e4, 1e7)
        return bw[key]

    return tree, hosts, model, start, replicas, estimator


def assert_same_result(scalar, vectorized):
    assert scalar.placement == vectorized.placement
    assert scalar.cost == vectorized.cost  # bitwise
    assert scalar.rounds == vectorized.rounds
    assert scalar.candidates_evaluated == vectorized.candidates_evaluated
    assert scalar.links_queried == vectorized.links_queried
    assert scalar.algorithm == vectorized.algorithm


class TestPlanEquality:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_shot_plans_identical(self, seed):
        rng = random.Random(seed)
        with_replicas = seed % 3 == 0
        tree, hosts, model, start, replicas, est = random_setup(
            rng, with_replicas
        )
        scalar = ScalarOneShotPlanner(tree, hosts, model, replicas)
        vector = OneShotPlanner(tree, hosts, model, replicas)
        assert_same_result(scalar.plan(est, start), vector.plan(est, start))

    @pytest.mark.parametrize("seed", range(10))
    def test_global_warm_start_plans_identical(self, seed):
        rng = random.Random(500 + seed)
        tree, hosts, model, start, _, est = random_setup(rng)
        scalar = ScalarOneShotPlanner(tree, hosts, model)
        vector = GlobalPlanner(tree, hosts, model)
        # Warm-start from a one-shot plan, as the controller does.
        warm = scalar.plan(est, start).placement
        expected = replace(scalar.plan(est, warm), algorithm="global")
        assert_same_result(expected, vector.plan(est, warm))

    def test_recording_semantics_on_asymmetric_estimator(self):
        # links_queried must equal the scalar RecordingEstimator set even
        # when bandwidth is direction-dependent (the recorder
        # canonicalizes pairs, the matrix must too).
        for seed in range(8):
            rng = random.Random(900 + seed)
            tree, hosts, model, start, _, est = random_setup(rng)
            scalar = ScalarOneShotPlanner(tree, hosts, model)
            vector = OneShotPlanner(tree, hosts, model)
            s, v = scalar.plan(est, start), vector.plan(est, start)
            assert s.links_queried == v.links_queried
            assert all(a < b for a, b in v.links_queried)

    def test_fleet_planner_plans_identical(self):
        # A standalone fleet planner has no other queries to discount
        # for, so it must plan exactly like the bare search.
        tree, hosts, model, start, _, est = random_setup(random.Random(42))
        fleet = planner_for("fleet-coordinated", tree, hosts, model)
        result = fleet.plan(est, start)
        expected = ScalarOneShotPlanner(tree, hosts, model).plan(est, start)
        assert result.placement == expected.placement
        assert result.cost == expected.cost


class TestSnapshotReads:
    def test_reads_each_ordered_pair_once(self):
        tree, hosts, model, start, _, est = random_setup(random.Random(42))
        calls = []

        def live(a, b):
            calls.append((a, b))
            return est(a, b)

        planner = OneShotPlanner(tree, hosts, model)
        pairs = len(hosts) * (len(hosts) - 1)
        first = planner.plan(live, start)
        assert sorted(calls) == sorted(
            (a, b) for a in hosts for b in hosts if a != b
        )
        # A repeat is answered from the memo, but only after reading
        # the view again to key it.
        assert planner.plan(live, start) is first
        assert len(calls) == 2 * pairs
