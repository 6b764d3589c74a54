"""Critical-path computation, the scalar oracle's occupancy and the scalar
single-move evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.cost import CostModel, frozen_estimator
from repro.dataflow.critical import (
    CriticalPath,
    bandwidth_matrix,
    critical_path,
    placement_cost,
)
from repro.dataflow.placement import Placement
from repro.dataflow.tree import complete_binary_tree
from tests.oracles.scalar_planner import SingleMoveEvaluator
from tests.oracles.scalar_pricer import host_occupancy

TREE = complete_binary_tree(4)
SERVER_HOSTS = {f"s{i}": f"h{i}" for i in range(4)}
HOSTS = [f"h{i}" for i in range(4)] + ["client"]


def model(size=1000.0, startup=0.0, compute=0.0, disk=1e12):
    sizes = {node.node_id: size for node in TREE.nodes()}
    return CostModel(
        TREE,
        sizes,
        startup_cost=startup,
        compute_seconds_per_byte=compute,
        disk_rate=disk,
    )


def flat(rate):
    return lambda a, b: float("inf") if a == b else rate


def download_all():
    return Placement.all_at_client(TREE, SERVER_HOSTS, "client")


class TestHostOccupancy:
    def test_download_all_concentrates_on_client(self):
        cm = model(size=1000.0)
        edges, occupancy = host_occupancy(TREE, download_all(), cm, flat(100.0))
        # Client receives all four server transfers (10 s each).
        assert occupancy["client"] == pytest.approx(40.0)
        for i in range(4):
            assert occupancy[f"h{i}"] == pytest.approx(10.0)

    def test_colocated_edges_free(self):
        cm = model()
        placement = download_all().with_move("op0", "h0")
        edges, __ = host_occupancy(TREE, placement, cm, flat(100.0))
        assert edges["s0"] == 0.0  # s0 and op0 both on h0
        assert edges["s1"] > 0

    def test_occupancy_includes_compute_and_disk(self):
        cm = model(size=1000.0, compute=1e-3, disk=10000.0)
        __, occupancy = host_occupancy(TREE, download_all(), cm, flat(100.0))
        # Client: 4 transfers + 3 composes (1 s each).
        assert occupancy["client"] == pytest.approx(43.0)
        # Server host: disk read (0.1) + transfer (10).
        assert occupancy["h0"] == pytest.approx(10.1)


class TestCriticalPath:
    def test_download_all_bottleneck_is_client(self):
        cm = model()
        cp = critical_path(TREE, download_all(), cm, flat(100.0))
        assert cp.cost == pytest.approx(40.0)
        assert cp.nodes[-1] == "client"

    def test_heterogeneous_rates_pick_slowest_server(self):
        cm = model()

        def estimator(a, b):
            if a == b:
                return float("inf")
            # h2's link is ten times slower than everyone else's.
            if "h2" in (a, b):
                return 10.0
            return 100.0

        cp = critical_path(TREE, download_all(), cm, estimator)
        # Client occupancy: 3 * 10 + 100 = 130.
        assert cp.cost == pytest.approx(130.0)

    def test_latency_term_dominates_long_remote_chains(self):
        cm = model(startup=0.0)
        # Stack the whole left spine on distinct hosts, making a long
        # remote chain with low per-host occupancy.
        placement = (
            download_all().with_move("op0", "h1").with_move("op2", "h2")
        )
        cp = critical_path(TREE, placement, cm, flat(10.0))
        edges, occupancy = host_occupancy(TREE, placement, cm, flat(10.0))
        latencies = []
        for path in cm.server_paths:
            total = sum(edges[n] for n in path[:-1])
            latencies.append(total)
        assert cp.cost >= max(latencies)
        assert cp.cost >= max(occupancy.values())

    def test_operators_property(self):
        cp = CriticalPath(nodes=("s0", "op0", "op2", "client"), cost=1.0)
        assert cp.operators == ("op0", "op2")
        assert "op0" in cp
        assert "s1" not in cp

    def test_placement_cost_matches_critical_path(self):
        cm = model()
        placement = download_all()
        assert placement_cost(TREE, placement, cm, flat(50.0)) == critical_path(
            TREE, placement, cm, flat(50.0)
        ).cost


class TestSingleMoveEvaluator:
    def test_base_cost_matches_full(self):
        cm = model(size=1000.0, compute=1e-4, disk=1e5)
        placement = download_all()
        evaluator = SingleMoveEvaluator(TREE, placement, cm, flat(100.0))
        assert evaluator.base_cost() == pytest.approx(
            placement_cost(TREE, placement, cm, flat(100.0))
        )

    def test_noop_move_equals_base(self):
        cm = model()
        evaluator = SingleMoveEvaluator(TREE, download_all(), cm, flat(100.0))
        assert evaluator.cost_of_move("op0", "client") == evaluator.base_cost()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_recomputation_randomized(self, seed):
        rng = np.random.default_rng(seed)
        cm = model(size=1000.0, startup=0.05, compute=1e-4, disk=1e5)
        rates = {}

        def estimator(a, b):
            if a == b:
                return float("inf")
            key = (a, b) if a < b else (b, a)
            if key not in rates:
                rates[key] = float(rng.uniform(5.0, 500.0))
            return rates[key]

        assignment = download_all().as_dict()
        for op in TREE.operators():
            assignment[op.node_id] = HOSTS[rng.integers(len(HOSTS))]
        base = Placement(assignment)
        evaluator = SingleMoveEvaluator(TREE, base, cm, estimator)
        for op in TREE.operators():
            for host in HOSTS:
                expected = placement_cost(
                    TREE, base.with_move(op.node_id, host), cm, estimator
                )
                actual = evaluator.cost_of_move(op.node_id, host)
                assert actual == pytest.approx(expected, rel=1e-12)


class TestBandwidthMatrixOverAView:
    """A frozen view's matrix is one array build; it must equal, byte
    for byte, the ordered-pair loop every other estimator gets."""

    @staticmethod
    def loop(hosts, view, floor):
        # A plain closure is not a FrozenView: it takes the pair loop.
        return bandwidth_matrix(hosts, lambda a, b: view(a, b), floor)

    @settings(max_examples=100, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from(("a", "b", "c", "d", "e")), min_size=1, unique=True
        ),
        rates=st.lists(
            st.sampled_from((0.5, 1.0, 2.0, 1e3, 1e6, 3.7e4)), min_size=10, max_size=10
        ),
        picks=st.lists(st.sampled_from(("a", "b", "c", "d", "e", "zz")), max_size=6),
        floor=st.sampled_from((1.0, 1e3)),
    )
    def test_equals_the_pair_loop(self, names, rates, picks, floor):
        rate = iter(rates)
        view = frozen_estimator(names, lambda a, b: next(rate))
        for hosts in (view.hosts, tuple(picks), list(view.hosts)[::-1]):
            try:
                want = self.loop(hosts, view, floor)
            except KeyError:
                with pytest.raises(KeyError):
                    bandwidth_matrix(hosts, view, floor)
                continue
            got = bandwidth_matrix(hosts, view, floor)
            assert got.shape == want.shape == (len(hosts), len(hosts))
            assert got.tobytes() == want.tobytes()

    def test_floors_and_keeps_an_inf_diagonal(self):
        view = frozen_estimator(("x", "y", "z"), lambda a, b: {"y": 0.25}.get(b, 7.0))
        matrix = bandwidth_matrix(("x", "z"), view, 1.0)
        assert matrix.tolist() == [[np.inf, 7.0], [7.0, np.inf]]
        assert bandwidth_matrix(view.hosts, view, 1.0)[0, 1] == 1.0
