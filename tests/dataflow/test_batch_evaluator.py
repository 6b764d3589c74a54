"""BatchMoveEvaluator: bit-identical to the scalar reference evaluator.

The batch-priced planner search is only admissible because every float
it produces is *bitwise* equal to the scalar reference search's (the
oracle in ``tests/oracles/scalar_planner.py``) — these tests compare
with ``==`` on raw floats (no pytest.approx anywhere) across randomized
trees, placements and asymmetric estimators, including the incremental
``apply_move`` path.
"""

import random

import pytest

from repro.dataflow.cost import CostModel, RecordingEstimator
from repro.dataflow.critical import BatchMoveEvaluator, critical_path
from repro.dataflow.placement import Placement
from repro.dataflow.tree import complete_binary_tree, left_deep_tree
from tests.oracles.scalar_planner import SingleMoveEvaluator


def random_case(rng):
    """A random (tree, hosts, cost model, placement, estimator) tuple."""
    n = rng.choice([2, 3, 4, 5, 8])
    shape = rng.choice(["binary", "left-deep"])
    tree = complete_binary_tree(n) if shape == "binary" else left_deep_tree(n)
    hosts = [f"h{i}" for i in range(n)] + ["client"]
    sizes = {node.node_id: rng.uniform(1e4, 1e6) for node in tree.nodes()}
    model = CostModel(tree, sizes, startup_cost=0.05, disk_rate=3e6)
    server_hosts = {
        s.node_id: hosts[i] for i, s in enumerate(tree.servers())
    }
    placement = Placement.all_at_client(tree, server_hosts, "client")
    # Scatter the operators to random hosts first, so placements are not
    # all download-all shaped.
    for op in tree.operators():
        if rng.random() < 0.6:
            placement = placement.with_move(op.node_id, rng.choice(hosts))

    bw = {}

    def estimator(a, b):
        key = (a, b)  # deliberately asymmetric: (a, b) != (b, a)
        if key not in bw:
            bw[key] = rng.uniform(0.5, 1e7)  # sometimes below min_bandwidth
        return bw[key]

    return tree, hosts, model, placement, estimator


def scalar_round(tree, model, placement, estimator, moves, best_cost):
    """One scalar pricing round: the one-shot inner loop, verbatim."""
    evaluator = SingleMoveEvaluator(tree, placement, model, estimator)
    best_move = None
    cells = 0
    for node_id, candidate_hosts in moves:
        current_host = placement.host_of(node_id)
        for host in candidate_hosts:
            if host == current_host:
                continue
            cells += 1
            cost = evaluator.cost_of_move(node_id, host)
            if cost <= best_cost:
                best_cost = cost
                best_move = (node_id, host)
    return cells, best_cost, best_move


def all_moves(tree, hosts):
    return [(op.node_id, tuple(hosts)) for op in tree.operators()]


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(25))
    def test_critical_path_matches_scalar(self, seed):
        rng = random.Random(seed)
        tree, hosts, model, placement, estimator = random_case(rng)
        scalar = critical_path(tree, placement, model, estimator)
        batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
        assert batch.critical_path().cost == scalar.cost
        assert batch.critical_path().nodes == scalar.nodes

    @pytest.mark.parametrize("seed", range(25))
    def test_round_winner_matches_scalar(self, seed):
        rng = random.Random(1000 + seed)
        tree, hosts, model, placement, estimator = random_case(rng)
        start = critical_path(tree, placement, model, estimator).cost
        moves = all_moves(tree, hosts)
        want = scalar_round(tree, model, placement, estimator, moves, start)
        batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
        got = batch.price_moves(moves, start)
        assert got == want  # cells, bitwise best cost, identical move

    @pytest.mark.parametrize("seed", range(15))
    def test_apply_move_is_bit_identical_to_rebuild(self, seed):
        rng = random.Random(2000 + seed)
        tree, hosts, model, placement, estimator = random_case(rng)
        batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
        moves = all_moves(tree, hosts)
        for _ in range(3):
            op = rng.choice([o.node_id for o in tree.operators()])
            host = rng.choice(hosts)
            if host == placement.host_of(op):
                continue
            placement = placement.with_move(op, host)
            batch.apply_move(op, host)
            fresh = BatchMoveEvaluator(
                tree, placement, model, estimator, hosts
            )
            assert batch.critical_path().cost == fresh.critical_path().cost
            assert batch.critical_path().nodes == fresh.critical_path().nodes
            start = batch.critical_path().cost
            assert batch.price_moves(moves, start) == fresh.price_moves(
                moves, start
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_grid_cells_match_cost_of_move(self, seed):
        # Cell-level check: price one node at a time so the returned
        # minimum is comparable against each scalar cost directly.
        rng = random.Random(3000 + seed)
        tree, hosts, model, placement, estimator = random_case(rng)
        scalar = SingleMoveEvaluator(tree, placement, model, estimator)
        batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
        for op in tree.operators():
            for host in hosts:
                if host == placement.host_of(op.node_id):
                    continue
                want = scalar.cost_of_move(op.node_id, host)
                cells, got, move = batch.price_moves(
                    [(op.node_id, (host,))], float("inf")
                )
                assert cells == 1
                assert got == want
                assert move == (op.node_id, host)


class TestRecorderSemantics:
    @pytest.mark.parametrize("seed", range(10))
    def test_links_match_recording_estimator(self, seed):
        rng = random.Random(4000 + seed)
        tree, hosts, model, placement, estimator = random_case(rng)
        recorder = RecordingEstimator(estimator)
        critical_path(tree, placement, model, recorder)
        scalar = SingleMoveEvaluator(tree, placement, model, recorder)
        batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
        for op in tree.operators():
            for host in hosts:
                if host != placement.host_of(op.node_id):
                    scalar.cost_of_move(op.node_id, host)
        batch.price_moves(all_moves(tree, hosts), float("inf"))
        assert batch.links_queried() == frozenset(recorder.queried)

    def test_links_are_canonical_pairs(self):
        rng = random.Random(7)
        tree, hosts, model, placement, estimator = random_case(rng)
        batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
        batch.price_moves(all_moves(tree, hosts), float("inf"))
        for a, b in batch.links_queried():
            assert a < b
