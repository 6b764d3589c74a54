"""Microbenchmarks of the substrates: DES kernel, planner, traces.

These are conventional pytest-benchmark measurements (multiple rounds)
guarding the performance that makes the 300-configuration studies
feasible.
"""

import numpy as np

from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.critical import critical_path
from repro.dataflow.tree import complete_binary_tree
from repro.placement import OneShotPlanner, download_all_placement
from repro.sim import Environment, Resource
from repro.traces import InternetStudy
from tests.oracles.scalar_planner import SingleMoveEvaluator


def test_kernel_timeout_throughput(benchmark):
    """Schedule-and-fire rate of the event calendar."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(2000):
                yield env.timeout(1.0)

        for _ in range(5):
            env.process(ticker(env))
        env.run()
        return env.now

    assert benchmark(run) == 2000.0


def test_kernel_resource_contention(benchmark):
    """Requests through a contended resource."""

    def run():
        env = Environment()
        resource = Resource(env, capacity=2)
        served = []

        def user(env):
            with resource.request() as req:
                yield req
                yield env.timeout(1.0)
                served.append(env.now)

        for _ in range(500):
            env.process(user(env))
        env.run()
        return len(served)

    assert benchmark(run) == 500


def test_planner_one_shot_32_servers(benchmark):
    """A full one-shot search at the paper's largest scale."""
    tree = complete_binary_tree(32)
    hosts = [f"h{i}" for i in range(32)] + ["client"]
    cost_model = CostModel(tree, expected_output_sizes(tree, 128 * 1024, 0.25))
    server_hosts = {f"s{i}": f"h{i}" for i in range(32)}
    initial = download_all_placement(tree, server_hosts, "client")
    rng = np.random.default_rng(0)
    rates = {}

    def estimator(a, b):
        if a == b:
            return float("inf")
        key = (a, b) if a < b else (b, a)
        if key not in rates:
            rates[key] = float(rng.lognormal(np.log(10 * 1024), 0.8))
        return rates[key]

    planner = OneShotPlanner(tree, hosts, cost_model)
    result = benchmark(planner.plan, estimator, initial)
    assert result.cost < critical_path(tree, initial, cost_model, estimator).cost


def test_single_move_evaluator(benchmark):
    """Incremental candidate pricing (the scalar reference's inner loop)."""
    tree = complete_binary_tree(16)
    hosts = [f"h{i}" for i in range(16)] + ["client"]
    cost_model = CostModel(tree, expected_output_sizes(tree, 128 * 1024, 0.25))
    server_hosts = {f"s{i}": f"h{i}" for i in range(16)}
    placement = download_all_placement(tree, server_hosts, "client")

    def estimator(a, b):
        return float("inf") if a == b else 10 * 1024.0

    evaluator = SingleMoveEvaluator(tree, placement, cost_model, estimator)
    operators = [op.node_id for op in tree.operators()]

    def sweep():
        best = float("inf")
        for op in operators:
            for host in hosts:
                cost = evaluator.cost_of_move(op, host)
                if cost < best:
                    best = cost
        return best

    assert benchmark(sweep) > 0


def test_trace_generation(benchmark):
    """Synthesizing the full 66-pair, two-day study."""
    result = benchmark(lambda: InternetStudy(seed=77).run())
    assert len(result) == 66
