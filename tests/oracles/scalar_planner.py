"""The scalar reference search: the paper's pseudocode, one candidate at
a time.

The planners in :mod:`repro.placement` price each round's whole move
grid in one numpy pass (:class:`repro.dataflow.critical.BatchMoveEvaluator`).
This module keeps the straightforward version that pass must reproduce
bit for bit: :class:`SingleMoveEvaluator` prices one single-operator
move in O(paths + hosts), and :func:`scalar_search` runs the one-shot
rounds with it.  Tests compare the two on random asymmetric estimators
and on whole runs (patch :func:`scalar_search` in as
``OneShotPlanner._search``).
"""

from __future__ import annotations

from repro.dataflow.cost import (
    BandwidthEstimator,
    CostModel,
    RecordingEstimator,
)
from repro.dataflow.critical import critical_path, host_occupancy
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree
from repro.placement.base import PlanResult
from repro.placement.one_shot import OneShotPlanner


class SingleMoveEvaluator:
    """Incremental placement-cost evaluation for single-operator moves.

    The placement cost is ``max(max-path latency, max-host occupancy)``
    (every host holding a node lies on some server path, so the per-path
    bottleneck maximum equals the global host-occupancy maximum).  Moving
    one operator changes at most three edges (its two input edges and its
    output edge) and the occupancy of a handful of hosts, so a candidate
    can be priced in O(paths + hosts) instead of re-walking the tree —
    the one-shot search prices thousands of candidates per round.
    """

    def __init__(
        self,
        tree: CombinationTree,
        placement: Placement,
        cost_model: CostModel,
        estimator: BandwidthEstimator,
    ) -> None:
        self.tree = tree
        self.cost_model = cost_model
        self.estimator = estimator
        self.assignment = dict(placement.assignment)
        self.edge_seconds, self.occupancy = host_occupancy(
            tree, placement, cost_model, estimator
        )
        self.path_edge_sums = [
            sum(self.edge_seconds[node_id] for node_id in path[:-1])
            for path in cost_model.server_paths
        ]
        #: op id -> ((child ids), parent id) adjacency cache.
        self._adjacent: dict[str, tuple[tuple[str, ...], str]] = {}

    def _edge(self, child: str, child_host: str, parent_host: str) -> float:
        if child_host == parent_host:
            return 0.0
        cm = self.cost_model
        bandwidth = self.estimator(child_host, parent_host)
        if bandwidth < cm.min_bandwidth:
            bandwidth = cm.min_bandwidth
        return cm.startup_cost + cm.sizes[child] / bandwidth

    def base_cost(self) -> float:
        """Cost of the unmodified placement."""
        latency = max(
            node_sum + edge_sum
            for node_sum, edge_sum in zip(
                self.cost_model.path_node_sums, self.path_edge_sums
            )
        )
        bottleneck = max(self.occupancy.values())
        return latency if latency > bottleneck else bottleneck

    def cost_of_move(self, op_id: str, new_host: str) -> float:
        """Placement cost if ``op_id`` alone moved to ``new_host``."""
        assignment = self.assignment
        old_host = assignment[op_id]
        if new_host == old_host:
            return self.base_cost()

        adjacency = self._adjacent.get(op_id)
        if adjacency is None:
            node = self.tree.node(op_id)
            adjacency = (node.children, node.parent)
            self._adjacent[op_id] = adjacency
        children, parent = adjacency

        # Edge deltas (the op's input edges and its output edge).
        edge_delta: dict[str, float] = {}
        occ_delta: dict[str, float] = {
            old_host: -self.cost_model.node_seconds(op_id),
            new_host: self.cost_model.node_seconds(op_id),
        }

        def bump(host: str, seconds: float) -> None:
            occ_delta[host] = occ_delta.get(host, 0.0) + seconds

        for child in children:
            child_host = assignment[child]
            old_edge = self.edge_seconds[child]
            new_edge = self._edge(child, child_host, new_host)
            edge_delta[child] = new_edge - old_edge
            bump(child_host, new_edge - old_edge)
            bump(old_host, -old_edge)
            bump(new_host, new_edge)
        if parent is not None:
            parent_host = assignment[parent]
            old_edge = self.edge_seconds[op_id]
            new_edge = self._edge(op_id, new_host, parent_host)
            edge_delta[op_id] = new_edge - old_edge
            bump(parent_host, new_edge - old_edge)
            bump(old_host, -old_edge)
            bump(new_host, new_edge)

        # Latency term: only paths through the op change.
        cm = self.cost_model
        affected = cm.paths_through.get(op_id, ())
        latency = 0.0
        affected_set = set(affected)
        for index, (node_sum, edge_sum) in enumerate(
            zip(cm.path_node_sums, self.path_edge_sums)
        ):
            if index in affected_set:
                continue
            total = node_sum + edge_sum
            if total > latency:
                latency = total
        for index in affected:
            total = cm.path_node_sums[index] + self.path_edge_sums[index]
            for child, delta in edge_delta.items():
                if index in cm.paths_through.get(child, ()):
                    total += delta
            if total > latency:
                latency = total

        # Bottleneck term: adjust the touched hosts.
        bottleneck = 0.0
        for host, occ in self.occupancy.items():
            occ += occ_delta.get(host, 0.0)
            if occ > bottleneck:
                bottleneck = occ
        extra = occ_delta.get(new_host)
        if new_host not in self.occupancy and extra is not None and extra > bottleneck:
            bottleneck = extra

        return latency if latency > bottleneck else bottleneck


def scalar_search(
    planner: OneShotPlanner, estimator: BandwidthEstimator, initial: Placement
) -> PlanResult:
    """One-shot search from ``initial``, pricing candidates one by one.

    A drop-in for ``OneShotPlanner._search``: same candidates, same
    tie-breaks, same recorded links, no memo.
    """
    recorder = RecordingEstimator(estimator)
    tree, cost_model = planner.tree, planner.cost_model
    current = initial
    current_cost = critical_path(tree, current, cost_model, recorder).cost
    rounds = 0
    candidates = 0

    for _ in range(planner.max_rounds):
        rounds += 1
        path = critical_path(tree, current, cost_model, recorder)
        evaluator = SingleMoveEvaluator(tree, current, cost_model, recorder)
        best_move: "tuple[str, str] | None" = None
        best_cost = current_cost
        for node_id, candidate_hosts in planner._candidate_moves(path, current):
            current_host = current.host_of(node_id)
            for host in candidate_hosts:
                if host == current_host:
                    continue
                candidates += 1
                cost = evaluator.cost_of_move(node_id, host)
                # Paper: "if (C_min <= C')" — ties move toward the
                # newer candidate, strict improvement gates adoption.
                if cost <= best_cost:
                    best_cost = cost
                    best_move = (node_id, host)
        if best_cost < current_cost and best_move is not None:
            current = current.with_move(*best_move)
            current_cost = best_cost
        else:
            break

    return PlanResult(
        placement=current,
        cost=current_cost,
        rounds=rounds,
        candidates_evaluated=candidates,
        links_queried=frozenset(recorder.queried),
        algorithm=planner.name,
    )


class ScalarOneShotPlanner(OneShotPlanner):
    """:class:`OneShotPlanner` searching with :func:`scalar_search`."""

    _search = scalar_search
