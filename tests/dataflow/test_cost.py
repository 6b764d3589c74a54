"""Cost model: expected sizes, node and edge costs."""

import math
import time

import numpy as np
import pytest

from repro.dataflow.cost import (
    CostModel,
    RecordingEstimator,
    clark_max,
    expected_output_sizes,
)
from repro.dataflow.placement import Placement
from repro.dataflow.tree import complete_binary_tree, left_deep_tree

TREE = complete_binary_tree(4)
SERVER_HOSTS = {f"s{i}": f"h{i}" for i in range(4)}


def flat_estimator(rate):
    return lambda a, b: float("inf") if a == b else rate


class TestClarkMax:
    def test_degenerate_variance(self):
        mean, var = clark_max(5.0, 0.0, 3.0, 0.0)
        assert mean == 5.0
        assert var == 0.0

    def test_identical_normals(self):
        # E[max(X, Y)] for iid N(mu, s^2) = mu + s/sqrt(pi).
        mu, sigma = 100.0, 10.0
        mean, __ = clark_max(mu, sigma**2, mu, sigma**2)
        assert mean == pytest.approx(mu + sigma / math.sqrt(math.pi), rel=1e-6)

    def test_dominant_input(self):
        mean, __ = clark_max(1000.0, 1.0, 0.0, 1.0)
        assert mean == pytest.approx(1000.0, rel=1e-6)

    def test_symmetry(self):
        a = clark_max(10.0, 4.0, 12.0, 9.0)
        b = clark_max(12.0, 9.0, 10.0, 4.0)
        assert a[0] == pytest.approx(b[0])
        assert a[1] == pytest.approx(b[1])


class TestExpectedSizes:
    def test_sizes_grow_up_the_tree(self):
        sizes = expected_output_sizes(TREE, 128 * 1024, 0.25)
        leaf = sizes["s0"]
        mid = sizes["op0"]
        root = sizes[TREE.root_operator.node_id]
        assert leaf < mid < root
        assert sizes["client"] == root

    def test_zero_variance_keeps_mean(self):
        sizes = expected_output_sizes(TREE, 1000.0, 0.0)
        assert all(v == pytest.approx(1000.0) for v in sizes.values())

    def test_left_deep_running_max(self):
        tree = left_deep_tree(8)
        sizes = expected_output_sizes(tree, 1000.0, 0.25)
        chain = [sizes[f"op{i}"] for i in range(7)]
        assert chain == sorted(chain)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_output_sizes(TREE, 0.0, 0.25)
        with pytest.raises(ValueError):
            expected_output_sizes(TREE, 100.0, -1.0)


class TestCostModel:
    def model(self):
        sizes = {node.node_id: 1000.0 for node in TREE.nodes()}
        return CostModel(
            TREE,
            sizes,
            startup_cost=0.05,
            compute_seconds_per_byte=1e-3,
            disk_rate=10000.0,
        )

    def test_missing_sizes_rejected(self):
        with pytest.raises(ValueError):
            CostModel(TREE, {"s0": 1.0})

    def test_node_seconds(self):
        model = self.model()
        assert model.node_seconds("s0") == pytest.approx(0.1)  # disk
        assert model.node_seconds("op0") == pytest.approx(1.0)  # compose
        assert model.node_seconds("client") == 0.0

    def test_edge_seconds_colocated_is_free(self):
        model = self.model()
        placement = Placement.all_at_client(TREE, SERVER_HOSTS, "client")
        # op0 and its parent op2 are both at the client.
        assert model.edge_seconds("op0", placement, flat_estimator(100)) == 0.0

    def test_edge_seconds_remote(self):
        model = self.model()
        placement = Placement.all_at_client(TREE, SERVER_HOSTS, "client")
        # s0@h0 -> op0@client: startup + 1000/100.
        cost = model.edge_seconds("s0", placement, flat_estimator(100.0))
        assert cost == pytest.approx(0.05 + 10.0)

    def test_min_bandwidth_floor(self):
        model = self.model()
        placement = Placement.all_at_client(TREE, SERVER_HOSTS, "client")
        cost = model.edge_seconds("s0", placement, flat_estimator(1e-9))
        assert cost == pytest.approx(0.05 + 1000.0)  # floored at 1 B/s

    def test_edge_detail(self):
        model = self.model()
        placement = Placement.all_at_client(TREE, SERVER_HOSTS, "client")
        edge = model.edge("s0", placement, flat_estimator(100.0))
        assert edge.child == "s0" and edge.parent == "op0"
        assert not edge.is_local
        with pytest.raises(ValueError):
            model.edge("client", placement, flat_estimator(100.0))

    def test_precomputed_paths_cover_all_servers(self):
        model = self.model()
        assert len(model.server_paths) == 4
        for path in model.server_paths:
            assert path[-1] == "client"


class TestRecordingEstimator:
    def test_records_canonical_pairs(self):
        recorder = RecordingEstimator(flat_estimator(5.0))
        recorder("b", "a")
        recorder("a", "b")
        recorder("a", "a")
        assert recorder.queried == {("a", "b")}

    def test_passes_values_through(self):
        recorder = RecordingEstimator(flat_estimator(5.0))
        assert recorder("x", "y") == 5.0


def _model_for(tree):
    sizes = {node.node_id: 1000.0 for node in tree.nodes()}
    return CostModel(tree, sizes, startup_cost=0.05, disk_rate=10000.0)


class TestPathsThrough:
    @pytest.mark.parametrize("make", [complete_binary_tree, left_deep_tree])
    def test_matches_brute_force(self, make):
        model = _model_for(make(9))
        for node_id in {n for path in model.server_paths for n in path}:
            expected = tuple(
                i
                for i, path in enumerate(model.server_paths)
                if node_id in path
            )
            assert model.paths_through[node_id] == expected

    def test_indices_are_in_path_order(self):
        model = _model_for(complete_binary_tree(8))
        for indices in model.paths_through.values():
            assert list(indices) == sorted(indices)

    def test_construction_scales_with_path_elements(self):
        # The old tuple-append build (`through[n] += (index,)`) rebuilt a
        # tuple per path, so nodes near the root cost O(paths^2) — a
        # complete binary tree's whole build degraded from
        # O(paths * depth) to O(paths^2).  Quadrupling the servers must
        # scale construction like path elements (~4.7x here), nowhere
        # near the old 16x.
        def build_seconds(num_servers):
            tree = complete_binary_tree(num_servers)
            sizes = {node.node_id: 1000.0 for node in tree.nodes()}
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                CostModel(tree, sizes, startup_cost=0.05, disk_rate=10000.0)
                best = min(best, time.perf_counter() - start)
            return best

        small, big = build_seconds(512), build_seconds(2048)
        assert big < 10 * small + 0.05


class TestCostModelArrays:
    def test_arrays_are_cached(self):
        model = _model_for(complete_binary_tree(4))
        assert model.arrays() is model.arrays()

    @pytest.mark.parametrize("make", [complete_binary_tree, left_deep_tree])
    def test_mirror_matches_scalar_structures(self, make):
        tree = make(6)
        model = _model_for(tree)
        arrays = model.arrays()
        index = arrays.node_index
        assert list(arrays.node_ids) == [n.node_id for n in tree.nodes()]
        for i, node_id in enumerate(arrays.node_ids):
            node = tree.node(node_id)
            assert arrays.node_seconds[i] == model.node_seconds(node_id)
            assert arrays.sizes[i] == model.sizes[node_id]
            parent = -1 if node.parent is None else index[node.parent]
            assert arrays.parent[i] == parent
            children = [index[c] for c in node.children]
            assert arrays.child1[i] == (children[0] if children else -1)
            assert arrays.child2[i] == (
                children[1] if len(children) > 1 else -1
            )
        for e, (child, parent, size) in enumerate(model.edges):
            assert arrays.edge_child[e] == index[child]
            assert arrays.edge_parent[e] == index[parent]
            assert arrays.edge_size[e] == size
        assert np.array_equal(
            arrays.path_node_sums, np.array(model.path_node_sums)
        )

    def test_incidence_matches_paths_through(self):
        model = _model_for(complete_binary_tree(8))
        arrays = model.arrays()
        for node_id, indices in model.paths_through.items():
            i = arrays.node_index[node_id]
            assert list(np.flatnonzero(arrays.on_path[i])) == list(indices)
            hits = arrays.affected[i][arrays.affected_valid[i]]
            assert list(hits) == list(indices)
            # The child masks tag exactly the affected columns whose path
            # also passes through that child.
            for mask, child in (
                (arrays.affected_child1[i], arrays.child1[i]),
                (arrays.affected_child2[i], arrays.child2[i]),
            ):
                if child < 0:
                    assert not mask.any()
                else:
                    expected = arrays.on_path[child, hits]
                    assert np.array_equal(mask[: hits.size], expected)
