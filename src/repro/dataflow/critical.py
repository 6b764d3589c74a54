"""Critical-path computation over a placed combination tree.

"Critical path is defined as the length of the longest path from a server
to the final destination (the client)" (§2), and a path's length must be
priced under the paper's assumption 2: every host has a **single network
interface** that sends or receives one message at a time, so all
transfers adjacent to a host serialize through its NIC.

The computation is pipelined (180 partitions flow through the tree), so a
path is as slow as its *most occupied* host: per partition, a host's
resources are busy for

    occupancy(h) = all remote transfers adjacent to h   (NIC serialization)
                 + compositions of the operators on h   (CPU)
                 + disk reads of the servers on h       (disk)

and a server-to-client path ``P`` costs

    cost(P) = max( sum of node costs + sum of edge costs along P,   # latency
                   max occupancy over the hosts P visits )          # bottleneck

The placement's cost is the maximum over all paths.  Under download-all
the client's occupancy contains every server's transfer — this is the
end-point congestion that makes the base case slow, and shedding it is
what the relocation algorithms buy.  The latency term keeps faraway
detours priced in.  Without the occupancy term (a naive reading of
"longest path") the model cannot see congestion at all and the one-shot
search never escapes the all-at-client initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dataflow.cost import BandwidthEstimator, CostModel
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree


@dataclass(frozen=True)
class CriticalPath:
    """The most expensive server-to-client chain under a placement."""

    #: Node ids from the critical server up to and including the client.
    nodes: tuple[str, ...]
    #: Length of the path, seconds per partition.
    cost: float

    @property
    def operators(self) -> tuple[str, ...]:
        """The operator nodes on the path (the relocation candidates)."""
        return tuple(n for n in self.nodes if n.startswith("op"))

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes


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


def placement_cost(
    tree: CombinationTree,
    placement: Placement,
    cost_model: CostModel,
    estimator: BandwidthEstimator,
) -> float:
    """Convenience: just the critical-path cost."""
    return critical_path(tree, placement, cost_model, estimator).cost


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


def evaluator_hosts(hosts: Sequence[str], placement: Placement) -> tuple[str, ...]:
    """The sorted host universe a :class:`BatchMoveEvaluator` indexes."""
    return tuple(sorted(set(hosts).union(placement.assignment.values())))


def bandwidth_matrix(
    hosts: Sequence[str], estimator: BandwidthEstimator, min_bandwidth: float
) -> np.ndarray:
    """Ordered-pair bandwidth snapshot over ``hosts``, floored like the
    scalar code.

    Direction matters for asymmetric estimators; the diagonal is never
    read unmasked and holds ``inf`` so it stays division-safe.
    """
    values = []
    for i, a in enumerate(hosts):
        for j, b in enumerate(hosts):
            if i == j:
                values.append(np.inf)
            else:
                value = estimator(a, b)
                values.append(min_bandwidth if value < min_bandwidth else value)
    return np.array(values, dtype=float).reshape(len(hosts), len(hosts))


#: Upper-triangle index pairs per host count (shared; tiny and immutable).
_TRIU_CACHE: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}


def _triu_indices(num_hosts: int) -> "tuple[np.ndarray, np.ndarray]":
    cached = _TRIU_CACHE.get(num_hosts)
    if cached is None:
        cached = np.triu_indices(num_hosts, k=1)
        _TRIU_CACHE[num_hosts] = cached
    return cached


@dataclass(frozen=True)
class _MoveGrid:
    """Placement-independent per-cell gathers for one move-list shape.

    The one-shot search re-prices near-identical move grids round after
    round, so everything that depends only on the (node, candidate host)
    structure — not on the current assignment — is gathered once and
    cached keyed on the move list.  The grid enumerates *every*
    candidate host including each node's current one; ``price_moves``
    masks current-host cells to ``+inf`` so they can never win, which
    keeps the cell layout static across rounds.
    """

    o: np.ndarray  #: node index per cell
    h: np.ndarray  #: candidate host index per cell
    rows: np.ndarray  #: arange(cells)
    node_sec: np.ndarray
    neg_node_sec: np.ndarray
    sizes3: np.ndarray  #: child1/child2/own output sizes, stacked (3 x cells)
    has3: np.ndarray  #: child1/child2 presence + all-True own row (3 x cells)
    m1: np.ndarray  #: affected columns through child 1 (cells x K)
    m2: np.ndarray  #: affected columns through child 2 (cells x K)
    valid: np.ndarray  #: affected-column validity (cells x K)
    flat_base: np.ndarray  #: tile(rows, 11) * num_hosts, for the scatter


class BatchMoveEvaluator:
    """Vectorized, incremental counterpart of :class:`SingleMoveEvaluator`.

    Prices *every* (candidate node x host) move of a planning round in a
    single numpy pass over a bandwidth-matrix snapshot of the estimator,
    bit-identically to the scalar evaluator.  Floating-point addition is
    not associative, so every accumulation replicates the scalar code's
    exact addition order: per-path sums use sequential depth loops (never
    pairwise ``np.sum``), occupancy uses ordered scatter-adds
    (``np.add.at`` applies repeated indices in sequence), and each grid
    cell applies its occupancy bumps and per-path edge deltas in the
    same eleven-step order as ``cost_of_move``.  The no-op additions the
    uniform vector pipeline introduces (masked zero deltas, padded
    columns) only ever add ``+0.0`` to values that are not ``-0.0``,
    which is exact in IEEE-754.

    The evaluator lives for one ``plan`` call.  The snapshot is taken
    once from the estimator passed in (or handed in ready-made as
    ``bandwidth``, see :func:`bandwidth_matrix`) — the fleet layer hands
    each plan call a fresh residual view, so fresh calls get fresh
    snapshots — and must therefore only be used with snapshot-safe
    estimators (see :func:`repro.dataflow.cost.snapshot_safe`).  Between
    rounds an adopted move rewrites the <=3 changed edge entries in
    place (each is an independent function of its endpoints, so the
    in-place update is bit-identical to a fresh recompute) while the
    order-sensitive reductions (occupancy, path sums, critical path) are
    recomputed with vector ops.

    Queried links are tracked in an ``H x H`` boolean matrix mirroring
    :class:`repro.dataflow.cost.RecordingEstimator`: the cross-host
    edges every round's occupancy pass consults, plus each cell's
    (child host, new host) and (new host, parent host) pairs when the
    endpoints differ; hosts are index-sorted by name, so the upper
    triangle is exactly the recorder's ``(a, b) if a < b``
    canonicalization.
    """

    def __init__(
        self,
        tree: CombinationTree,
        placement: Placement,
        cost_model: CostModel,
        estimator: BandwidthEstimator,
        hosts: Sequence[str] = (),
        grid_cache: "Optional[dict[tuple, _MoveGrid]]" = None,
        bandwidth: "Optional[np.ndarray]" = None,
    ) -> None:
        self.tree = tree
        self.cost_model = cost_model
        self.arrays = cost_model.arrays()
        arrays = self.arrays
        assignment = placement.assignment

        self.hosts = evaluator_hosts(hosts, placement)
        self.host_index = {host: i for i, host in enumerate(self.hosts)}
        num_hosts = len(self.hosts)

        # ``bandwidth`` lets a caller that already snapshotted the
        # estimator over this host tuple hand the matrix in.
        if bandwidth is None:
            bandwidth = bandwidth_matrix(
                self.hosts, estimator, cost_model.min_bandwidth
            )
        elif bandwidth.shape != (num_hosts, num_hosts):
            raise ValueError(
                f"bandwidth matrix shape {bandwidth.shape} does not match "
                f"{num_hosts} hosts"
            )
        self._bw = bandwidth
        self.startup = cost_model.startup_cost

        # The placement as an int array, plus the scalar accumulation
        # order: ``host_occupancy`` walks ``assignment.items()`` in dict
        # insertion order, which ``Placement.with_move`` preserves.
        self.assign = np.empty(len(arrays.node_ids), dtype=np.intp)
        order = []
        for node_id, host in assignment.items():
            self.assign[arrays.node_index[node_id]] = self.host_index[host]
            order.append(arrays.node_index[node_id])
        self._occ_order = np.array(order, dtype=np.intp)
        self._occ_order_seconds = arrays.node_seconds[self._occ_order]

        self.edge_seconds = np.zeros(len(arrays.node_ids))
        self._queried = np.zeros((num_hosts, num_hosts), dtype=bool)
        self._triu = _triu_indices(num_hosts)
        #: True once every canonical host pair has been recorded — the
        #: recorded set is monotone and maximal, so recording can stop.
        self._links_complete = False
        self._host_tuple_cache: dict[tuple[str, ...], np.ndarray] = {}
        #: Cell-structure cache keyed on (host universe, move list); a
        #: planner may pass a persistent dict so the placement-independent
        #: grids survive across plan calls.
        self._grid_cache: dict[tuple, _MoveGrid] = (
            {} if grid_cache is None else grid_cache
        )
        self._set_all_edges()
        self._recompute_reductions()

    # -- per-round state ----------------------------------------------------
    def _set_all_edges(self) -> None:
        arrays = self.arrays
        child_hosts = self.assign[arrays.edge_child]
        parent_hosts = self.assign[arrays.edge_parent]
        self.edge_seconds[arrays.edge_child] = np.where(
            child_hosts != parent_hosts,
            self.startup + arrays.edge_size / self._bw[child_hosts, parent_hosts],
            0.0,
        )

    def _set_edge(self, child: int) -> None:
        """Recompute one edge entry (bit-identical to a full rebuild)."""
        a = self.assign[child]
        b = self.assign[self.arrays.parent[child]]
        if a == b:
            self.edge_seconds[child] = 0.0
        else:
            self.edge_seconds[child] = (
                self.startup + self.arrays.sizes[child] / self._bw[a, b]
            )

    def _recompute_reductions(self) -> None:
        """Order-sensitive accumulations, recomputed per placement state.

        Occupancy and path sums are sequential scalar accumulations, so
        they cannot be patched incrementally without changing addition
        order; they are rebuilt here with order-exact vector ops
        (O(nodes + edges + paths), trivial next to the move grid).
        """
        arrays = self.arrays
        assign = self.assign
        num_hosts = len(self.hosts)

        # Occupancy: node seconds in assignment order, then child/parent
        # interleaved per edge in edge order — the scalar sequence.
        occ = np.zeros(num_hosts)
        np.add.at(occ, assign[self._occ_order], self._occ_order_seconds)
        child_hosts = assign[arrays.edge_child]
        parent_hosts = assign[arrays.edge_parent]
        seconds = self.edge_seconds[arrays.edge_child]
        endpoints = np.empty(2 * child_hosts.size, dtype=np.intp)
        endpoints[0::2] = child_hosts
        endpoints[1::2] = parent_hosts
        np.add.at(occ, endpoints, np.repeat(seconds, 2))
        self._occ = occ
        occupied = np.zeros(num_hosts, dtype=bool)
        occupied[assign] = True
        self._unoccupied = ~occupied
        self._any_unoccupied = bool(self._unoccupied.any())
        self._occ_masked = np.where(occupied, occ, -np.inf)

        # Per-path edge sums and critical-path latency, one sequential
        # depth loop for both (pairwise np.sum would change the addition
        # order).  The scalar walk adds node seconds in path order first
        # — bitwise equal to ``path_node_sums``, which Python's
        # ``sum()`` accumulated left-to-right from zero in the same
        # order — then edge seconds in path order; the edge-sum
        # accumulator adds the identical terms starting from zero.
        edge_cols = arrays.path_edge_clamped
        edge_valid = arrays.path_edge_valid
        esums = np.zeros(arrays.num_paths)
        latency = arrays.path_node_sums.copy()
        for d in range(edge_cols.shape[1]):
            term = np.where(
                edge_valid[:, d], self.edge_seconds[edge_cols[:, d]], 0.0
            )
            esums = esums + term
            latency = latency + term
        self.path_edge_sums = esums
        self.all_totals = arrays.path_node_sums + esums

        # Bottleneck as an order-free max; first index attaining the
        # maximum wins, like the strict-> running compare.
        path_occ = np.where(
            arrays.path_nodes_valid,
            occ[assign[arrays.path_nodes_clamped]],
            0.0,
        )
        bottleneck = path_occ.max(axis=1)
        costs = np.where(latency > bottleneck, latency, bottleneck)
        best = int(np.argmax(costs))
        self._critical = CriticalPath(
            nodes=self.cost_model.server_paths[best], cost=float(costs[best])
        )

        # Per-node snapshots that ``price_moves`` gathers per grid cell,
        # packed into one int and one float matrix so a round's state
        # reaches the cells in two fancy gathers.  Rows of ``_ipack``:
        # own / child1 / child2 / parent host, then the occupancy-bump
        # targets (a childless slot aims the masked zero delta at the
        # node's own host, a no-op add).  Rows of ``_fpack``: current
        # child edge seconds, the node's own current edge seconds, and
        # the latency floor over paths *not* through the node.
        n = assign.size
        ipack = np.empty((6, n), dtype=np.intp)
        ipack[0] = assign
        ipack[1] = assign[arrays.child1_clamped]
        ipack[2] = assign[arrays.child2_clamped]
        ipack[3] = assign[arrays.parent_clamped]
        ipack[4] = np.where(arrays.has_child1, ipack[1], assign)
        ipack[5] = np.where(arrays.has_child2, ipack[2], assign)
        self._ipack = ipack
        fpack = np.empty((4, n))
        fpack[0] = np.where(
            arrays.has_child1, self.edge_seconds[arrays.child1_clamped], 0.0
        )
        fpack[1] = np.where(
            arrays.has_child2, self.edge_seconds[arrays.child2_clamped], 0.0
        )
        fpack[2] = self.edge_seconds
        floor = np.where(
            arrays.on_path, -np.inf, self.all_totals[None, :]
        ).max(axis=1)
        fpack[3] = np.where(floor > 0.0, floor, 0.0)
        self._fpack = fpack
        self._base_totals = np.where(
            arrays.affected_valid,
            self.all_totals[arrays.affected_clamped],
            -np.inf,
        )

        # The scalar round consults every cross-host edge of the current
        # placement (critical path + evaluator construction).
        cross = child_hosts != parent_hosts
        self._queried[
            np.minimum(child_hosts, parent_hosts)[cross],
            np.maximum(child_hosts, parent_hosts)[cross],
        ] = True
        if not self._links_complete:
            self._links_complete = bool(self._queried[self._triu].all())

    def critical_path(self) -> CriticalPath:
        """The critical path of the current placement state."""
        return self._critical

    def links_queried(self) -> frozenset:
        """Canonical host pairs consulted so far (recorder semantics)."""
        rows, cols = np.nonzero(self._queried)
        return frozenset(
            (self.hosts[i], self.hosts[j])
            for i, j in zip(rows.tolist(), cols.tolist())
            if i != j
        )

    # -- the batched move grid ----------------------------------------------
    def _host_indices(self, candidate_hosts: tuple[str, ...]) -> np.ndarray:
        cached = self._host_tuple_cache.get(candidate_hosts)
        if cached is None:
            cached = np.array(
                [self.host_index[h] for h in candidate_hosts], dtype=np.intp
            )
            self._host_tuple_cache[candidate_hosts] = cached
        return cached

    def price_moves(
        self, moves, best_cost: float
    ) -> "tuple[int, float, Optional[tuple[str, str]]]":
        """Price every (node, host != current) cell of ``moves`` at once.

        Returns ``(cells, best_cost, best_move)`` with the scalar round's
        exact semantics: the running ``cost <= best`` rule means the
        *last* cell attaining the grid minimum wins (a reversed argmin),
        and ``best_move`` is None when no cell reaches ``best_cost``.
        ``cells`` counts only host != current cells, like the scalar
        loop's ``continue``; the grid itself enumerates every candidate
        host and masks current-host cells to ``+inf``, which keeps the
        cell layout placement-independent and cacheable per move list.
        """
        arrays = self.arrays
        grid = self._grid_cache.get((self.hosts, tuple(moves)))
        if grid is None:
            grid = self._build_grid(moves)
        o, h, rows = grid.o, grid.h, grid.rows
        if o.size == 0:
            return 0, best_cost, None
        bw = self._bw
        startup = self.startup

        # Two fancy gathers deliver the round's per-node state to the
        # cells; the rows come out as views.
        icells = self._ipack[:, o]
        fcells = self._fpack[:, o]
        old = icells[0]
        chosts = icells[1:3]
        parent_host = icells[3]
        old_e3 = fcells[0:3]
        floor = fcells[3]

        # All three moved edges — both child inputs plus the output —
        # in one (3 x cells) pass: rows 0/1 read bw[child host, h],
        # row 2 reads bw[h, parent host].  The masked new edges are
        # exactly 0.0 where absent or co-located, so the plain
        # differences reproduce the scalar deltas (childless rows give
        # +0.0 - +0.0 = +0.0).
        src = np.empty((3, o.size), dtype=np.intp)
        src[0:2] = chosts
        src[2] = h
        dst = np.empty((3, o.size), dtype=np.intp)
        dst[0:2] = h
        dst[2] = parent_host
        masks3 = grid.has3 & (src != dst)
        new_e3 = np.where(masks3, startup + grid.sizes3 / bw[src, dst], 0.0)
        d3 = new_e3 - old_e3
        masks12 = masks3[0:2]
        mask_o = masks3[2]
        d1, d2, d_o = d3[0], d3[1], d3[2]
        new_eo = new_e3[2]

        # Latency: per-node unaffected floor (precomputed per round),
        # then the affected totals with the scalar's three delta adds
        # (child1, child2, own edge) in order, accumulated in place
        # (the gather above produced a fresh array).
        totals = self._base_totals[o]
        np.add(totals, np.where(grid.m1, d1[:, None], 0.0), out=totals)
        np.add(totals, np.where(grid.m2, d2[:, None], 0.0), out=totals)
        np.add(totals, np.where(grid.valid, d_o[:, None], 0.0), out=totals)
        aff_max = totals.max(axis=1)
        latency = np.where(aff_max > floor, aff_max, floor)

        # Bottleneck: the eleven occupancy bumps of ``cost_of_move``,
        # fused into one sequential scatter-add.  ``np.bincount`` scans
        # its input in order, and the step-major layout (step 0 for all
        # cells, then step 1, ...) puts each slot's contributions in the
        # scalar's eleven-step sequence, so every slot accumulates in
        # ``cost_of_move``'s exact dict order (childless rows add
        # exact-zero no-ops).  Then one base + delta add per host, max
        # over occupied hosts (unoccupied ones are premasked to -inf),
        # and the unoccupied-target special case when it can trigger.
        neg_e3 = -old_e3
        flat_cols = np.concatenate(
            (old, h, icells[4], old, h, icells[5], old, h, parent_host, old, h)
        )
        flat_vals = np.concatenate(
            (
                grid.neg_node_sec,
                grid.node_sec,
                d1,
                neg_e3[0],
                new_e3[0],
                d2,
                neg_e3[1],
                new_e3[1],
                d_o,
                neg_e3[2],
                new_eo,
            )
        )
        delta = np.bincount(
            grid.flat_base + flat_cols,
            weights=flat_vals,
            minlength=o.size * len(self.hosts),
        ).reshape(o.size, len(self.hosts))
        bottleneck = (self._occ_masked + delta).max(axis=1)
        bottleneck = np.where(bottleneck > 0.0, bottleneck, 0.0)
        if self._any_unoccupied:
            extra = delta[rows, h]
            lift = self._unoccupied[h] & (extra > bottleneck)
            bottleneck = np.where(lift, extra, bottleneck)
        costs = np.where(latency > bottleneck, latency, bottleneck)

        # Current-host cells are the scalar loop's ``continue``: priced
        # as +inf so they can never win, excluded from the cell count.
        is_current = h == old
        costs = np.where(is_current, np.inf, costs)
        cells = int(o.size - np.count_nonzero(is_current))
        if cells == 0:
            return 0, best_cost, None

        # Recorder semantics for the cells' estimator queries.  A
        # current-host cell's pairs are that node's present cross
        # edges, already recorded by ``_recompute_reductions``; once
        # every pair is recorded the set is maximal and recording stops.
        if not self._links_complete:
            for left, right, mask in (
                (chosts[0], h, masks12[0]),
                (chosts[1], h, masks12[1]),
                (h, parent_host, mask_o),
            ):
                a = left[mask]
                b = right[mask]
                self._queried[np.minimum(a, b), np.maximum(a, b)] = True
            self._links_complete = bool(self._queried[self._triu].all())

        # The running ``cost <= best`` winner is the *last* cell
        # attaining the grid minimum: argmin over the reversed costs
        # finds it in one reduction.
        flat = o.size - 1 - int(costs[::-1].argmin())
        minimum = float(costs[flat])
        if minimum <= best_cost:
            return (
                cells,
                minimum,
                (arrays.node_ids[o[flat]], self.hosts[h[flat]]),
            )
        return cells, best_cost, None

    def _build_grid(self, moves) -> _MoveGrid:
        """Gather and cache the placement-independent cell structure."""
        arrays = self.arrays
        node_parts: list[np.ndarray] = []
        host_parts: list[np.ndarray] = []
        for node_id, candidate_hosts in moves:
            node = arrays.node_index[node_id]
            hidx = self._host_indices(candidate_hosts)
            host_parts.append(hidx)
            node_parts.append(np.full(hidx.size, node, dtype=np.intp))
        if node_parts:
            o = np.concatenate(node_parts)
            h = np.concatenate(host_parts)
        else:
            o = np.empty(0, dtype=np.intp)
            h = np.empty(0, dtype=np.intp)
        node_sec = arrays.node_seconds[o]
        rows = np.arange(o.size)
        grid = _MoveGrid(
            o=o,
            h=h,
            rows=rows,
            node_sec=node_sec,
            neg_node_sec=-node_sec,
            sizes3=np.vstack(
                (
                    arrays.sizes[arrays.child1_clamped[o]],
                    arrays.sizes[arrays.child2_clamped[o]],
                    arrays.sizes[o],
                )
            ),
            has3=np.vstack(
                (
                    arrays.has_child1[o],
                    arrays.has_child2[o],
                    np.ones(o.size, dtype=bool),
                )
            ),
            m1=arrays.affected_child1[o],
            m2=arrays.affected_child2[o],
            valid=arrays.affected_valid[o],
            flat_base=np.tile(rows, 11) * len(self.hosts),
        )
        self._grid_cache[(self.hosts, tuple(moves))] = grid
        return grid

    def apply_move(self, node_id: str, host: str) -> None:
        """Adopt a move: patch the <=3 changed edges, rebuild reductions."""
        arrays = self.arrays
        node = arrays.node_index[node_id]
        self.assign[node] = self.host_index[host]
        for child in (arrays.child1[node], arrays.child2[node]):
            if child >= 0:
                self._set_edge(int(child))
        self._set_edge(node)
        self._recompute_reductions()
