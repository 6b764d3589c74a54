"""The analytic cost model used by the placement algorithms.

The placement algorithms never see the simulator's internals; they price
candidate placements with this model, fed by *bandwidth estimates* (from
monitoring).  A placement's cost is the length of its critical path —
see :mod:`repro.dataflow.critical`.

Per-partition costs:

* a tree edge costs ``startup + size / bandwidth`` if its endpoints sit on
  different hosts, zero if co-located;
* a server costs one disk read (``size / disk_rate``);
* an operator costs its composition time (7 µs per pixel of its output in
  the paper's experiments).

Output sizes flow up the tree: a composition result is as large as the
larger input (§4), so expected sizes are computed with Clark's two-moment
approximation of ``max`` of normals — with the paper's Normal(128 KB,
25 %) images the expected partition grows slightly level by level.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.dataflow.tree import CombinationTree

#: ``estimator(host_a, host_b) -> bytes/second`` — monitoring's view.
BandwidthEstimator = Callable[[str, str], float]


class FrozenView:
    """One reading of every pair of a host set: a pure estimator.

    Holds the sorted host tuple ``hosts``, the host -> row map ``index``
    and one list row per host, ``rows[i][j]`` the bandwidth from
    ``hosts[i]`` to ``hosts[j]`` (``inf`` on the diagonal).  Calling the
    view answers either direction with two dict lookups; a host outside
    the set raises ``KeyError`` unless both ends are that host.
    Planners evaluate thousands of candidate placements, so they plan
    from such a view rather than from the live monitor, and
    :func:`~repro.dataflow.critical.bandwidth_matrix` reads its rows in
    one array build.  A view is never mutated: derived views (the fleet
    coordinator's residual) copy the rows they change.
    """

    __slots__ = ("hosts", "index", "rows")

    def __init__(
        self,
        hosts: "tuple[str, ...]",
        index: "dict[str, int]",
        rows: "list[list[float]]",
    ) -> None:
        self.hosts = hosts
        self.index = index
        self.rows = rows

    def __call__(self, a: str, b: str) -> float:
        index = self.index
        try:
            return self.rows[index[a]][index[b]]
        except KeyError:
            if a == b:
                return math.inf
            raise


def frozen_estimator(
    hosts: Iterable[str], read: Callable[[str, str], float]
) -> FrozenView:
    """A :class:`FrozenView` over one reading of every pair of ``hosts``.

    ``read`` is called once per canonical pair ``(a, b)`` with ``a < b``,
    in sorted host order; the view answers both directions with it.
    """
    ordered = tuple(sorted(hosts))
    count = len(ordered)
    rows = [[math.inf] * count for _ in ordered]
    for i, a in enumerate(ordered):
        row = rows[i]
        for j in range(i + 1, count):
            row[j] = rows[j][i] = read(a, ordered[j])
    return FrozenView(ordered, {host: i for i, host in enumerate(ordered)}, rows)


def _phi(x: float) -> float:
    """Standard normal pdf."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _cdf(x: float) -> float:
    """Standard normal cdf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def clark_max(
    mean_a: float, var_a: float, mean_b: float, var_b: float
) -> tuple[float, float]:
    """Clark's approximation of ``(mean, variance)`` of max of two
    independent normals."""
    theta_sq = var_a + var_b
    if theta_sq <= 0:
        return max(mean_a, mean_b), 0.0
    theta = math.sqrt(theta_sq)
    alpha = (mean_a - mean_b) / theta
    mean = mean_a * _cdf(alpha) + mean_b * _cdf(-alpha) + theta * _phi(alpha)
    second = (
        (mean_a * mean_a + var_a) * _cdf(alpha)
        + (mean_b * mean_b + var_b) * _cdf(-alpha)
        + (mean_a + mean_b) * theta * _phi(alpha)
    )
    return mean, max(second - mean * mean, 0.0)


def expected_output_sizes(
    tree: CombinationTree,
    mean_size: float,
    rel_std: float,
    combiner=None,
) -> dict[str, float]:
    """Expected per-partition output size (bytes) of every tree node.

    Servers emit Normal(``mean_size``, ``rel_std * mean_size``)
    partitions; operators combine them according to ``combiner`` (the
    paper's image composition — max of inputs — when None).  Moments
    propagate by the combiner's ``moment_rule``:

    * ``"max"`` — Clark's two-moment approximation (image composition);
    * ``"sum"`` — exact for independent inputs (sorted merge);
    * ``"scaled-min"`` — Clark on the negated inputs, scaled by the
      combiner's ``match_rate`` (hash-join buckets).
    """
    if mean_size <= 0:
        raise ValueError(f"mean_size must be positive, got {mean_size!r}")
    if rel_std < 0:
        raise ValueError(f"rel_std must be non-negative, got {rel_std!r}")
    rule = getattr(combiner, "moment_rule", "max")
    std = mean_size * rel_std
    moments: dict[str, tuple[float, float]] = {}

    def combine(ma: float, va: float, mb: float, vb: float) -> tuple[float, float]:
        if rule == "max":
            return clark_max(ma, va, mb, vb)
        if rule == "sum":
            return ma + mb, va + vb
        if rule == "scaled-min":
            neg_mean, var = clark_max(-ma, va, -mb, vb)
            rate = combiner.match_rate
            return max(rate * -neg_mean, 1.0), rate * rate * var
        raise ValueError(f"unknown moment rule {rule!r}")

    def visit(node_id: str) -> tuple[float, float]:
        if node_id in moments:
            return moments[node_id]
        node = tree.node(node_id)
        if node.is_server:
            result = (mean_size, std * std)
        elif node.is_operator:
            (ma, va), (mb, vb) = (visit(c) for c in node.children)
            result = combine(ma, va, mb, vb)
        else:  # client relays its single input
            result = visit(node.children[0])
        moments[node_id] = result
        return result

    visit(tree.client.node_id)
    return {node_id: mean for node_id, (mean, _) in moments.items()}


class CostModel:
    """Prices placements for the planning algorithms.

    Parameters
    ----------
    tree:
        The combination tree being planned.
    sizes:
        Expected output size (bytes) per node id, normally from
        :func:`expected_output_sizes`.
    startup_cost:
        Per-message startup, seconds (paper: 0.050).
    compute_seconds_per_byte:
        Composition cost per output byte (paper: 7 µs per pixel, one byte
        per pixel ⇒ 7e-6).
    disk_rate:
        Server disk bandwidth, bytes/second (paper: 3 MB/s).
    min_bandwidth:
        Floor applied to estimates so costs stay finite.
    combiner:
        Optional combiner object; when given, an operator's compute cost
        is ``combiner.compute_seconds(child sizes)`` instead of
        ``compute_seconds_per_byte * output size``.
    """

    def __init__(
        self,
        tree: CombinationTree,
        sizes: Mapping[str, float],
        startup_cost: float = 0.050,
        compute_seconds_per_byte: float = 7e-6,
        disk_rate: float = 3 * 1024 * 1024,
        min_bandwidth: float = 1.0,
        combiner=None,
    ) -> None:
        missing = [n.node_id for n in tree.nodes() if n.node_id not in sizes]
        if missing:
            raise ValueError(f"sizes missing for nodes: {missing!r}")
        self.tree = tree
        self.sizes = dict(sizes)
        self.startup_cost = startup_cost
        self.compute_seconds_per_byte = compute_seconds_per_byte
        self.disk_rate = disk_rate
        self.min_bandwidth = min_bandwidth
        self.combiner = combiner
        # Precomputed hot-path structures: the planners price thousands of
        # candidate placements per planning round.
        self._node_seconds: dict[str, float] = {
            node.node_id: self._compute_node_seconds(node.node_id)
            for node in tree.nodes()
        }
        #: (child_id, parent_id, child_size) for every non-root node.
        self.edges: tuple[tuple[str, str, float], ...] = tuple(
            (node.node_id, node.parent, self.sizes[node.node_id])
            for node in tree.nodes()
            if node.parent is not None
        )
        #: Server-to-client paths, one per server (critical-path search).
        self.server_paths: tuple[tuple[str, ...], ...] = tuple(
            tuple(tree.path_to_client(server.node_id))
            for server in tree.servers()
        )
        #: Placement-independent node-cost sum of each server path.
        self.path_node_sums: tuple[float, ...] = tuple(
            sum(self._node_seconds[node_id] for node_id in path)
            for path in self.server_paths
        )
        #: node id -> indices of the server paths passing through it.
        #: Built by list accumulation and frozen once — the old
        #: tuple-append (``+= (index,)``) rebuilt a tuple per path, an
        #: O(paths^2) construction for the nodes near the root.
        through: dict[str, list[int]] = {}
        for index, path in enumerate(self.server_paths):
            for node_id in path:
                through.setdefault(node_id, []).append(index)
        self.paths_through: dict[str, tuple[int, ...]] = {
            node_id: tuple(indices) for node_id, indices in through.items()
        }
        self._arrays: "CostModelArrays | None" = None

    def arrays(self) -> "CostModelArrays":
        """Integer-indexed views for the vectorized planner engine.

        Built lazily and cached — the arrays are pure functions of the
        (immutable) tree, sizes and path structure.
        """
        if self._arrays is None:
            self._arrays = CostModelArrays(self)
        return self._arrays

    def node_seconds(self, node_id: str) -> float:
        """Per-partition processing cost of a node (disk read / compose)."""
        return self._node_seconds[node_id]

    def _compute_node_seconds(self, node_id: str) -> float:
        node = self.tree.node(node_id)
        if node.is_server:
            return self.sizes[node_id] / self.disk_rate
        if node.is_operator:
            if self.combiner is not None:
                child_a, child_b = node.children
                return self.combiner.compute_seconds(
                    self.sizes[child_a], self.sizes[child_b]
                )
            return self.sizes[node_id] * self.compute_seconds_per_byte
        return 0.0


class CostModelArrays:
    """Dense integer-indexed mirror of a :class:`CostModel`.

    Node ids map to ints in ``tree.nodes()`` (sorted-id) order and server
    paths keep ``CostModel.server_paths`` order, so a placement becomes
    an int array and the batch evaluator
    (:class:`repro.dataflow.critical.BatchMoveEvaluator`) prices whole
    move grids with numpy reductions.  Everything here is
    placement-independent and computed once per cost model.
    """

    def __init__(self, cost_model: CostModel) -> None:
        tree = cost_model.tree
        self.node_ids: tuple[str, ...] = tuple(
            node.node_id for node in tree.nodes()
        )
        self.node_index: dict[str, int] = {
            node_id: i for i, node_id in enumerate(self.node_ids)
        }
        index = self.node_index
        n = len(self.node_ids)

        self.node_seconds = np.array(
            [cost_model.node_seconds(node_id) for node_id in self.node_ids]
        )
        self.sizes = np.array(
            [cost_model.sizes[node_id] for node_id in self.node_ids]
        )

        # Adjacency: parent / first / second child, -1 where absent
        # (servers have no children, the client no parent; operators are
        # binary by construction).
        self.parent = np.full(n, -1, dtype=np.intp)
        self.child1 = np.full(n, -1, dtype=np.intp)
        self.child2 = np.full(n, -1, dtype=np.intp)
        for i, node_id in enumerate(self.node_ids):
            node = tree.node(node_id)
            if node.parent is not None:
                self.parent[i] = index[node.parent]
            if node.children:
                self.child1[i] = index[node.children[0]]
            if len(node.children) > 1:
                self.child2[i] = index[node.children[1]]

        # Edges in ``CostModel.edges`` order (the scalar occupancy
        # accumulation order, which the batch evaluator replicates).
        self.edge_child = np.array(
            [index[c] for c, _, _ in cost_model.edges], dtype=np.intp
        )
        self.edge_parent = np.array(
            [index[p] for _, p, _ in cost_model.edges], dtype=np.intp
        )
        self.edge_size = np.array([s for _, _, s in cost_model.edges])

        # Server paths padded with -1: all nodes (latency/bottleneck
        # walks) and the per-edge prefix ``path[:-1]`` (edge sums).
        paths = cost_model.server_paths
        self.num_paths = len(paths)
        depth = max(len(path) for path in paths)
        self.path_nodes = np.full((self.num_paths, depth), -1, dtype=np.intp)
        self.path_edge_nodes = np.full(
            (self.num_paths, depth - 1), -1, dtype=np.intp
        )
        for pi, path in enumerate(paths):
            ids = [index[node_id] for node_id in path]
            self.path_nodes[pi, : len(ids)] = ids
            self.path_edge_nodes[pi, : len(ids) - 1] = ids[:-1]
        self.path_node_sums = np.array(cost_model.path_node_sums)

        # Clamped adjacency (dummy index 0 where absent) plus presence
        # masks, so hot gathers need no per-call bounds handling.
        self.has_child1 = self.child1 >= 0
        self.has_child2 = self.child2 >= 0
        self.child1_clamped = np.where(self.has_child1, self.child1, 0)
        self.child2_clamped = np.where(self.has_child2, self.child2, 0)
        self.parent_clamped = np.where(self.parent >= 0, self.parent, 0)
        self.path_nodes_valid = self.path_nodes >= 0
        self.path_nodes_clamped = np.where(self.path_nodes_valid, self.path_nodes, 0)

        # Node-on-path incidence plus per-node gather tables over the
        # affected (through-this-node) paths: ``affected`` holds the path
        # indices from ``paths_through`` left-justified, ``affected_*``
        # mark which of those columns pass through the node's first or
        # second child (the scalar delta-application tests).
        self.on_path = np.zeros((n, self.num_paths), dtype=bool)
        for node_id, indices in cost_model.paths_through.items():
            self.on_path[index[node_id], list(indices)] = True
        self.affected = np.full((n, self.num_paths), -1, dtype=np.intp)
        self.affected_valid = np.zeros((n, self.num_paths), dtype=bool)
        self.affected_child1 = np.zeros((n, self.num_paths), dtype=bool)
        self.affected_child2 = np.zeros((n, self.num_paths), dtype=bool)
        for i in range(n):
            hits = np.flatnonzero(self.on_path[i])
            self.affected[i, : hits.size] = hits
            self.affected_valid[i, : hits.size] = True
            if self.child1[i] >= 0:
                self.affected_child1[i, : hits.size] = self.on_path[
                    self.child1[i], hits
                ]
            if self.child2[i] >= 0:
                self.affected_child2[i, : hits.size] = self.on_path[
                    self.child2[i], hits
                ]
        self._slot_tables(n)

    def _slot_tables(self, n: int) -> None:
        """The batch evaluator's slot vector and the scatters that read it.

        :class:`~repro.dataflow.critical.BatchMoveEvaluator` keeps one
        float vector per search, laid out as ``slots`` (the template:
        zero edges, constants filled in), and each pricing step reads
        its operands from it with one gather, so an absent operand is a
        slot of its own (a +0.0 edge, a -inf path) instead of a mask:

        =======================  ===========================================
        ``[0, n)``               edge seconds above each node (0.0 co-located)
        ``slot_zero`` (``n``)    +0.0, the absent edge
        ``slot_neg_edge + i``    minus slot ``i``, for ``i`` in ``[0, n]``
        ``slot_node + i``        node seconds of node ``i``
        ``slot_neg_node + i``    minus that
        ``slot_path + p``        path node sum of path ``p``
        ``slot_neg_inf``         -inf
        ``slot_floor + i``       latency floor of node ``i``
        =======================  ===========================================

        The critical-path kernel is one in-order ``np.bincount`` whose
        bins are each path's latency (``[0, P)``), each path's node plus
        edge sum (``[P, 2P)``), -inf (``2P``) and then each host's
        occupancy; ``walk_bins``/``walk_slots`` are its path part.
        """
        num_paths = self.num_paths
        self.slot_zero = n
        self.slot_neg_edge = n + 1
        self.slot_node = 2 * n + 2
        self.slot_neg_node = 3 * n + 2
        self.slot_path = 4 * n + 2
        self.slot_neg_inf = self.slot_path + num_paths
        self.slot_floor = self.slot_neg_inf + 1
        slots = np.zeros(self.slot_floor + n)
        slots[self.slot_node : self.slot_neg_node] = self.node_seconds
        slots[self.slot_neg_node : self.slot_path] = -self.node_seconds
        slots[self.slot_path : self.slot_neg_inf] = self.path_node_sums
        slots[self.slot_neg_inf] = -np.inf
        slots.flags.writeable = False
        self.slots = slots

        # Per node its child1 / child2 / own edge (absent: slot ``n``).
        self.edge_pack = np.vstack(
            (
                np.where(self.has_child1, self.child1, n),
                np.where(self.has_child2, self.child2, n),
                np.arange(n),
            )
        )

        # The path walk, in bin order: a latency bin adds its path node
        # sum and then the path's edges in path order; a sum bin adds the
        # edges and then the node sum (the same two terms, exactly); the
        # -inf bin reads the -inf slot.
        paths = np.arange(num_paths)
        depth, path = np.nonzero(self.path_edge_nodes.T >= 0)
        edges = self.path_edge_nodes[path, depth]
        self.walk_bins = np.concatenate(
            (paths, path, num_paths + path, num_paths + paths, [2 * num_paths])
        )
        self.walk_slots = np.concatenate(
            (
                self.slot_path + paths,
                edges,
                edges,
                self.slot_path + paths,
                [self.slot_neg_inf],
            )
        )
        #: Per node, the sum bins of the paths not through it (else the
        #: -inf bin): the latency floor's operands.
        self.offpath_bins = np.where(self.on_path, 2 * num_paths, num_paths + paths)


class RecordingEstimator:
    """Wraps an estimator, recording every distinct host pair queried.

    The planners use this to discover which links they actually consulted
    — the set that on-demand monitoring must keep fresh ("in practice ...
    only a subset of the links need to be measured", §2.1).
    """

    def __init__(self, estimator: BandwidthEstimator) -> None:
        self._estimator = estimator
        self.queried: set[tuple[str, str]] = set()

    def __call__(self, a: str, b: str) -> float:
        if a != b:
            self.queried.add((a, b) if a < b else (b, a))
        return self._estimator(a, b)
