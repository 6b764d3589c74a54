"""The scalar critical-path pricer: the paper's path walk, dict by dict.

:func:`repro.dataflow.critical.critical_path` prices a placement with
one order-exact numpy reduction, shared with the batch evaluator's
search.  This module keeps the straightforward version that reduction
must reproduce bit for bit: :func:`host_occupancy` accumulates per-host
occupancy in the placement's insertion order, then per edge in
``CostModel.edges`` order, and :func:`critical_path` walks every
server-to-client path.  Tests compare the two with ``==`` on cost, nodes
and the link set a :class:`~repro.dataflow.cost.RecordingEstimator`
records.
"""

from __future__ import annotations

from repro.dataflow.cost import BandwidthEstimator, CostModel
from repro.dataflow.critical import CriticalPath
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree


def host_occupancy(
    tree: CombinationTree,
    placement: Placement,
    cost_model: CostModel,
    estimator: BandwidthEstimator,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-edge transfer times and per-host per-partition occupancy.

    Returns ``(edge_seconds, occupancy)``: ``edge_seconds[child]`` is the
    transfer time of the edge above ``child`` (0 if co-located);
    ``occupancy[host]`` is the host's per-partition busy time — NIC
    (every adjacent remote transfer), CPU (compositions placed there) and
    disk (server reads).
    """
    assignment = placement.assignment
    node_seconds = cost_model.node_seconds
    startup = cost_model.startup_cost
    min_bw = cost_model.min_bandwidth
    edge_seconds: dict[str, float] = {}
    occupancy: dict[str, float] = {}

    for node_id, host in assignment.items():
        occupancy[host] = occupancy.get(host, 0.0) + node_seconds(node_id)
    for child, parent, size in cost_model.edges:
        child_host = assignment[child]
        parent_host = assignment[parent]
        if child_host == parent_host:
            edge_seconds[child] = 0.0
            continue
        bandwidth = estimator(child_host, parent_host)
        if bandwidth < min_bw:
            bandwidth = min_bw
        seconds = startup + size / bandwidth
        edge_seconds[child] = seconds
        occupancy[child_host] += seconds
        occupancy[parent_host] += seconds
    return edge_seconds, occupancy


def critical_path(
    tree: CombinationTree,
    placement: Placement,
    cost_model: CostModel,
    estimator: BandwidthEstimator,
) -> CriticalPath:
    """Compute the critical path exactly (all server-to-client paths).

    Ties break toward the first path in server order, so the result is
    deterministic.
    """
    edge_seconds, occupancy = host_occupancy(
        tree, placement, cost_model, estimator
    )
    assignment = placement.assignment
    node_seconds = cost_model.node_seconds
    best_nodes: tuple[str, ...] = ()
    best_cost = float("-inf")
    for path in cost_model.server_paths:
        latency = 0.0
        bottleneck = 0.0
        for node_id in path:
            latency += node_seconds(node_id)
            host_occ = occupancy[assignment[node_id]]
            if host_occ > bottleneck:
                bottleneck = host_occ
        for node_id in path[:-1]:
            latency += edge_seconds[node_id]
        cost = latency if latency > bottleneck else bottleneck
        if cost > best_cost:
            best_cost = cost
            best_nodes = path
    return CriticalPath(nodes=best_nodes, cost=best_cost)
