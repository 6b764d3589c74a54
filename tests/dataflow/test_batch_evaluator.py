"""BatchMoveEvaluator: bit-identical to the scalar reference evaluator.

The batch-priced planner search is only admissible because every float
it produces is *bitwise* equal to the scalar reference search's (the
oracle in ``tests/oracles/scalar_planner.py``) — these tests compare
with ``==`` on raw floats (no pytest.approx anywhere) across randomized
trees, placements and asymmetric estimators, including the incremental
``apply_move`` path.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.cost import CostModel, RecordingEstimator
from repro.dataflow import critical
from repro.dataflow.critical import BatchMoveEvaluator
from repro.dataflow.placement import Placement
from repro.dataflow.tree import complete_binary_tree, left_deep_tree
from tests.oracles.scalar_planner import SingleMoveEvaluator
from tests.oracles.scalar_pricer import critical_path


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
        # Three sides: the scalar oracle, the kernel (``critical_path``,
        # with and without a host universe wider than the placement) and
        # the evaluator.  About a third of the links read below the
        # ``min_bandwidth`` floor.
        rng = random.Random(seed)
        tree, hosts, model, placement, drawn = random_case(rng)
        starved = {}

        def estimator(a, b):
            if (a, b) not in starved:
                starved[(a, b)] = rng.random() < 0.3
            return drawn(a, b) * (1e-7 if starved[(a, b)] else 1.0)

        wide = hosts + ["spare"]
        oracle = RecordingEstimator(estimator)
        scalar = critical_path(tree, placement, model, oracle)
        sides = []
        for universe, cache in (((), None), (wide, {})):
            recorder = RecordingEstimator(estimator)
            sides.append(
                (
                    critical.critical_path(
                        tree, placement, model, recorder, universe, cache
                    ),
                    recorder.queried,
                )
            )
        batch = BatchMoveEvaluator(tree, placement, model, estimator, wide)
        sides.append((batch.critical_path(), batch.links_queried()))
        for path, links in sides:
            assert path.cost == scalar.cost
            assert path.nodes == scalar.nodes
            assert links == oracle.queried

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

    @pytest.mark.parametrize("seed", range(10))
    def test_each_cell_records_its_own_pairs(self, seed):
        # One cell per evaluator, so no other cell's queries can cover a
        # pair the cell itself failed to record.
        rng = random.Random(5000 + seed)
        tree, hosts, model, placement, estimator = random_case(rng)
        for op in tree.operators():
            for host in hosts:
                if host == placement.host_of(op.node_id):
                    continue
                recorder = RecordingEstimator(estimator)
                critical_path(tree, placement, model, recorder)
                scalar = SingleMoveEvaluator(tree, placement, model, recorder)
                scalar.cost_of_move(op.node_id, host)
                batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
                batch.price_moves([(op.node_id, (host,))], float("inf"))
                assert batch.links_queried() == frozenset(recorder.queried)

    def test_links_are_canonical_pairs(self):
        rng = random.Random(7)
        tree, hosts, model, placement, estimator = random_case(rng)
        batch = BatchMoveEvaluator(tree, placement, model, estimator, hosts)
        batch.price_moves(all_moves(tree, hosts), float("inf"))
        for a, b in batch.links_queried():
            assert a < b


@st.composite
def wide_walks(draw, min_hosts=9, max_hosts=12):
    """A random search walk over a wide host universe.

    9-12 hosts put canonical pair indices past bit 64 of the recorded
    link mask; servers sit on a few of them, so most hosts are
    unoccupied and many cells move a node onto an empty host.  About a
    quarter of the links read below ``min_bandwidth``.  Returns the case
    plus the walk's rounds.
    """
    servers = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["binary", "left-deep"]))
    tree = (
        complete_binary_tree(servers)
        if shape == "binary"
        else left_deep_tree(servers)
    )
    num_hosts = draw(st.integers(min_hosts, max_hosts))
    hosts = [f"h{i:02d}" for i in range(num_hosts - 1)] + ["client"]
    sizes = {
        node.node_id: draw(st.floats(1e4, 1e6, allow_nan=False))
        for node in tree.nodes()
    }
    model = CostModel(
        tree, sizes, startup_cost=0.05, disk_rate=3e6, min_bandwidth=1e3
    )
    server_hosts = {
        s.node_id: draw(st.sampled_from(hosts[: max(2, servers)]))
        for s in tree.servers()
    }
    placement = Placement.all_at_client(tree, server_hosts, "client")
    operators = [op.node_id for op in tree.operators()]
    for op in operators:
        if draw(st.booleans()):
            placement = placement.with_move(op, draw(st.sampled_from(hosts)))
    rates = {}
    for a in hosts:
        for b in hosts:
            if a != b:
                starved = draw(st.integers(0, 3)) == 0
                rates[(a, b)] = draw(
                    st.floats(1.0, 999.0) if starved else st.floats(1e3, 1e7)
                )
    # Per round: the move list to price (every operator over every host,
    # or a few operators over a few hosts, so that one cell's pair is
    # often the only query of that link) and the move to adopt.
    some_moves = st.lists(
        st.tuples(
            st.sampled_from(operators),
            st.lists(st.sampled_from(hosts), min_size=1, unique=True).map(tuple),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda move: move[0],
    )
    walk = draw(
        st.lists(
            st.tuples(
                st.one_of(st.just(all_moves(tree, hosts)), some_moves),
                st.sampled_from(operators),
                st.sampled_from(hosts),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return tree, hosts, model, placement, rates, walk


def _same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _check_walk(tree, hosts, model, placement, rates, walk):
    """Price every round of ``walk`` on both sides; adopt its moves."""

    def read(a, b):
        return rates[(a, b)]

    recorder = RecordingEstimator(read)
    batch = BatchMoveEvaluator(tree, placement, model, read, hosts)
    for moves, node_id, host in walk:
        path = critical_path(tree, placement, model, recorder)
        got = batch.critical_path()
        assert _same_bits(got.cost, path.cost)
        assert got.nodes == path.nodes
        want = scalar_round(tree, model, placement, recorder, moves, path.cost)
        cells, cost, move = batch.price_moves(moves, path.cost)
        assert (cells, move) == (want[0], want[2])
        assert _same_bits(cost, want[1])
        assert batch.links_queried() == frozenset(recorder.queried)
        if host != placement.host_of(node_id):
            placement = placement.with_move(node_id, host)
            batch.apply_move(node_id, host)


class TestWideUniverses:
    @settings(max_examples=40, deadline=None)
    @given(wide_walks())
    def test_rounds_match_the_scalar_search(self, case):
        # Per round: the critical path, the grid's winner and bitwise
        # cost, and the recorded link set after the round.
        tree, hosts, model, placement, rates, walk = case
        _check_walk(tree, hosts, model, placement, rates, walk)

    @settings(max_examples=40, deadline=None)
    @given(wide_walks(min_hosts=2, max_hosts=4))
    def test_small_universes_record_every_pair(self, case):
        # Few hosts: the recorded set fills up, and recording stops
        # only once it holds every pair.
        tree, hosts, model, placement, rates, walk = case
        _check_walk(tree, hosts, model, placement, rates, walk)


def test_latency_floor_is_positive_zero():
    # The scalar walks start from +0.0 and take a value only on a
    # strict ``>``, so a floor over nothing, or over -0.0, is +0.0.
    values = np.array([-0.0, -np.inf, -1.0, 0.0, 2.5])
    floored = critical._at_least_zero(values)
    assert floored is values
    assert [(v, math.copysign(1.0, v)) for v in floored.tolist()] == [
        (0.0, 1.0),
        (0.0, 1.0),
        (0.0, 1.0),
        (0.0, 1.0),
        (2.5, 1.0),
    ]
