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

from repro.dataflow.cost import BandwidthEstimator, CostModel, FrozenView
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


def critical_path(
    tree: CombinationTree,
    placement: Placement,
    cost_model: CostModel,
    estimator: BandwidthEstimator,
    hosts: Sequence[str] = (),
    grid_cache: "Optional[dict]" = None,
) -> CriticalPath:
    """Compute the critical path exactly (all server-to-client paths).

    Reads the estimator once per cross-host edge, in ``cost_model.edges``
    order, and floors each read at ``min_bandwidth``; ties break toward
    the first path in server order, so the result is deterministic.  The
    price is :func:`_critical_reduction` over the placement's
    :class:`_PlacementState`: a planner passes its host tuple and search
    cache (``grid_cache``) to reuse the states its searches built;
    without a cache the state is built for this call.
    """
    arrays = cost_model.arrays()
    items = tuple(placement.assignment.items())
    cache = {} if grid_cache is None else grid_cache
    state = _load_state(cache, arrays, tuple(hosts), items)
    universe = state.hosts
    num_hosts = len(universe)
    min_bw = cost_model.min_bandwidth
    cross = np.flatnonzero(state.edge_cross)
    reads = []
    for index in state.edge_bw_index[cross].tolist():
        value = estimator(universe[index // num_hosts], universe[index % num_hosts])
        reads.append(min_bw if value < min_bw else value)
    edge_slots = np.zeros(len(arrays.node_ids) + 1)
    seconds = arrays.edge_size[cross] / np.array(reads, dtype=float)
    edge_slots[arrays.edge_child[cross]] = cost_model.startup_cost + seconds
    __, __, best, cost = _critical_reduction(arrays, state, edge_slots)
    return CriticalPath(nodes=cost_model.server_paths[best], cost=cost)


def placement_cost(
    tree: CombinationTree,
    placement: Placement,
    cost_model: CostModel,
    estimator: BandwidthEstimator,
) -> float:
    """Convenience: just the critical-path cost."""
    return critical_path(tree, placement, cost_model, estimator).cost


def evaluator_hosts(hosts: Sequence[str], placement: Placement) -> tuple[str, ...]:
    """The sorted host universe a :class:`BatchMoveEvaluator` indexes."""
    return tuple(sorted(set(hosts).union(placement.assignment.values())))


def bandwidth_matrix(
    hosts: Sequence[str], estimator: BandwidthEstimator, min_bandwidth: float
) -> np.ndarray:
    """Ordered-pair bandwidth snapshot over ``hosts``, floored like the
    scalar code.

    Direction matters for asymmetric estimators; the diagonal is never
    read unmasked and holds ``inf`` so it stays division-safe.  A
    :class:`~repro.dataflow.cost.FrozenView` over ``hosts`` (or over a
    superset of them, whose rows and columns are then gathered) becomes
    the matrix in one array build and one floor; any other estimator is
    called once per ordered pair.
    """
    if isinstance(estimator, FrozenView):
        rows = estimator.rows
        if hosts != estimator.hosts:
            index = estimator.index
            picks = [index.get(host) for host in hosts]
            # A host outside the view falls through to the pair loop,
            # which fails (or not) exactly as a pair read would.
            rows = (
                [] if None in picks else [[rows[i][j] for j in picks] for i in picks]
            )
        if rows:
            matrix = np.array(rows, dtype=float)
            return np.maximum(matrix, min_bandwidth, out=matrix)
    values = []
    append = values.append
    for i, a in enumerate(hosts):
        for j, b in enumerate(hosts):
            if i == j:
                append(np.inf)
            else:
                value = estimator(a, b)
                append(min_bandwidth if value < min_bandwidth else value)
    return np.array(values, dtype=float).reshape(len(hosts), len(hosts))


#: Upper-triangle index pairs per host count (shared; tiny and immutable).
_TRIU_CACHE: "dict[int, tuple[np.ndarray, np.ndarray]]" = {}


def _triu_indices(num_hosts: int) -> "tuple[np.ndarray, np.ndarray]":
    cached = _TRIU_CACHE.get(num_hosts)
    if cached is None:
        cached = np.triu_indices(num_hosts, k=1)
        _TRIU_CACHE[num_hosts] = cached
    return cached


def _frozen(entry):
    """Make every array of a cache entry read-only, so that an
    accidental in-place write raises instead of corrupting later plans."""
    for value in vars(entry).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return entry


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


@dataclass(frozen=True)
class _StateCells:
    """One move grid's assignment-dependent cell arrays.

    Everything ``price_moves`` derives from where nodes sit, and not
    from bandwidth, gathered once per (placement state, move list).
    """

    grid: _MoveGrid
    bw_index: np.ndarray  #: flat bandwidth index of the 3 moved edges (3 x cells)
    masks3: np.ndarray  #: moved edge present and cross-host (3 x cells)
    is_current: np.ndarray  #: the cell's host is the node's current one
    cells: int  #: host != current cells, the scalar candidate count
    flat_index: np.ndarray  #: step-major scatter targets (11 x cells, flat)
    lift: np.ndarray  #: the cell's host is unoccupied
    recorded: np.ndarray  #: flat canonical host pairs the cells query (repeats allowed)

    @classmethod
    def build(cls, grid: _MoveGrid, state: "_PlacementState") -> "_StateCells":
        num_hosts = len(state.hosts)
        o, h = grid.o, grid.h
        # ``ipack`` rows: own / child1 / child2 / parent host, then the
        # occupancy-bump targets of the two child slots.
        icells = state.ipack[:, o]
        old = icells[0]
        parent_host = icells[3]
        # The three moved edges, both child inputs plus the output: rows
        # 0/1 run (child host -> h), row 2 runs (h -> parent host).
        src = np.empty((3, o.size), dtype=np.intp)
        src[0:2] = icells[1:3]
        src[2] = h
        dst = np.empty((3, o.size), dtype=np.intp)
        dst[0:2] = h
        dst[2] = parent_host
        masks3 = grid.has3 & (src != dst)
        is_current = h == old
        flat_cols = np.concatenate(
            (old, h, icells[4], old, h, icells[5], old, h, parent_host, old, h)
        )
        recorded = (
            np.minimum(src, dst)[masks3] * num_hosts
            + np.maximum(src, dst)[masks3]
        )
        return _frozen(
            cls(
                grid=grid,
                bw_index=src * num_hosts + dst,
                masks3=masks3,
                is_current=is_current,
                cells=int(o.size - np.count_nonzero(is_current)),
                flat_index=grid.flat_base + flat_cols,
                lift=~state.occupied[h],
                recorded=recorded,
            )
        )


@dataclass(frozen=True)
class _PlacementState:
    """The bandwidth-independent evaluator state of one placement.

    A function of (host universe, assignment in insertion order) only:
    the int assignment, the occupancy scatter targets, the edge and
    path host gathers, the per-node host pack ``price_moves`` reads, and
    per move list the cell arrays (``cells``).  Periodic replans start
    from and walk through the same few placements again and again, so
    the planner keeps these in its ``_grid_cache`` and a revisited
    placement skips the decode and every gather.  The arrays are
    read-only; only ``cells`` and the planner's ``moves`` grow.
    """

    hosts: tuple[str, ...]
    host_index: dict
    items: tuple  #: the assignment's items, in insertion order
    position: dict  #: node id -> its index in ``items``
    assign: np.ndarray  #: host index per node
    occ_index: np.ndarray  #: occupancy scatter targets (nodes, then edges)
    occ_node_seconds: np.ndarray  #: node seconds in assignment order
    edge_bw_index: np.ndarray  #: flat bandwidth index per edge
    edge_cross: np.ndarray  #: the edge crosses hosts
    occupied: np.ndarray  #: some node sits on the host
    any_unoccupied: bool
    path_hosts: np.ndarray  #: host per (path, depth); num_hosts past the end
    ipack: np.ndarray  #: own / child1 / child2 / parent host, bump targets
    queried_cross: np.ndarray  #: flat canonical pairs of cross-host edges
    cells: dict  #: move list -> :class:`_StateCells`
    moves: dict  #: critical-path index -> candidate move list (planner-filled)

    @classmethod
    def build(cls, arrays, hosts: Sequence[str], items: tuple) -> "_PlacementState":
        universe = tuple(sorted(set(hosts).union(host for _, host in items)))
        host_index = {host: i for i, host in enumerate(universe)}
        num_hosts = len(universe)

        # The placement as an int array, plus the scalar accumulation
        # order: the oracle's ``host_occupancy`` walks
        # ``assignment.items()`` in dict insertion order, which
        # ``Placement.with_move`` preserves.
        assign = np.empty(len(arrays.node_ids), dtype=np.intp)
        order = np.empty(len(items), dtype=np.intp)
        for i, (node_id, host) in enumerate(items):
            node = arrays.node_index[node_id]
            assign[node] = host_index[host]
            order[i] = node

        # Occupancy targets in the scalar sequence: node seconds in
        # assignment order, then child/parent interleaved per edge.
        child_hosts = assign[arrays.edge_child]
        parent_hosts = assign[arrays.edge_parent]
        endpoints = np.empty(2 * child_hosts.size, dtype=np.intp)
        endpoints[0::2] = child_hosts
        endpoints[1::2] = parent_hosts
        occupied = np.zeros(num_hosts, dtype=bool)
        occupied[assign] = True
        cross = child_hosts != parent_hosts

        # A childless slot aims the masked zero delta at the node's own
        # host, a no-op add.
        ipack = np.empty((6, assign.size), dtype=np.intp)
        ipack[0] = assign
        ipack[1] = assign[arrays.child1_clamped]
        ipack[2] = assign[arrays.child2_clamped]
        ipack[3] = assign[arrays.parent_clamped]
        ipack[4] = np.where(arrays.has_child1, ipack[1], assign)
        ipack[5] = np.where(arrays.has_child2, ipack[2], assign)

        return _frozen(
            cls(
                hosts=universe,
                host_index=host_index,
                items=items,
                position={node_id: i for i, (node_id, _) in enumerate(items)},
                assign=assign,
                occ_index=np.concatenate((assign[order], endpoints)),
                occ_node_seconds=arrays.node_seconds[order],
                edge_bw_index=child_hosts * num_hosts + parent_hosts,
                edge_cross=cross,
                occupied=occupied,
                any_unoccupied=not bool(occupied.all()),
                path_hosts=np.where(
                    arrays.path_nodes_valid,
                    assign[arrays.path_nodes_clamped],
                    num_hosts,
                ),
                ipack=ipack,
                queried_cross=(
                    np.minimum(child_hosts, parent_hosts)[cross] * num_hosts
                    + np.maximum(child_hosts, parent_hosts)[cross]
                ),
                cells={},
                moves={},
            )
        )


def _load_state(
    grid_cache: dict, arrays, hosts: tuple, items: tuple
) -> _PlacementState:
    """The cached state of ``items`` over ``hosts``, built on a miss."""
    key = (_PlacementState, hosts, items)
    state = grid_cache.get(key)
    if state is None:
        state = grid_cache[key] = _PlacementState.build(arrays, hosts, items)
    return state


def _critical_reduction(
    arrays, state: _PlacementState, edge_slots: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, int, float]":
    """The critical path of one placement state, order-exact.

    ``edge_slots`` holds each node's edge seconds (0.0 where co-located)
    plus one always-zero slot that ``CostModelArrays.path_edge_rows``
    aims at for absent edges.  Returns ``(occupancy, path edge sums,
    critical path index, cost)``; the occupancy has one extra bin,
    +0.0, for the path slots past each path's end.

    Floating-point addition is not associative, so every accumulation
    follows the path walk of the scalar oracle
    (``tests/oracles/scalar_pricer.py``): occupancy is one in-order
    scatter (``np.bincount`` adds its inputs in sequence) of node
    seconds in assignment order, then child/parent interleaved per edge
    in edge order; path sums are sequential depth loops, never pairwise
    ``np.sum``.
    """
    occ = np.bincount(
        state.occ_index,
        weights=np.concatenate(
            (state.occ_node_seconds, np.repeat(edge_slots[arrays.edge_child], 2))
        ),
        minlength=len(state.hosts) + 1,
    )

    # One depth loop for the edge sums and the latency.  The walk adds
    # node seconds in path order first — bitwise equal to
    # ``path_node_sums``, accumulated left-to-right from zero in the
    # same order — then edge seconds in path order; the edge-sum
    # accumulator adds the identical terms starting from zero.
    esums = np.zeros(arrays.num_paths)
    latency = arrays.path_node_sums.copy()
    for term in edge_slots[arrays.path_edge_rows]:
        esums = esums + term
        latency = latency + term

    # Bottleneck as an order-free max; the first index attaining the
    # maximum wins, like the walk's strict-> running compare.
    bottleneck = occ[state.path_hosts].max(axis=1)
    costs = np.where(latency > bottleneck, latency, bottleneck)
    best = int(np.argmax(costs))
    return occ, esums, best, float(costs[best])


class BatchMoveEvaluator:
    """Incremental placement-cost evaluation for single-operator moves.

    The placement cost is ``max(max-path latency, max-host occupancy)``
    (every host holding a node lies on some server path, so the per-path
    bottleneck maximum equals the global host-occupancy maximum).  Moving
    one operator changes at most three edges (its two input edges and its
    output edge) and the occupancy of a handful of hosts.

    Prices *every* (candidate node x host) move of a planning round in a
    single numpy pass over a bandwidth-matrix snapshot of the estimator,
    bit-identically to the paper's one-candidate-at-a-time search (the
    "scalar" reference, kept as a test oracle in
    ``tests/oracles/scalar_planner.py``).  Floating-point addition is
    not associative, so every accumulation replicates the scalar code's
    exact addition order: the current placement's occupancy and path
    sums come from :func:`_critical_reduction`, the kernel
    :func:`critical_path` prices with too, and each grid cell applies
    its occupancy bumps and per-path edge deltas in the same eleven-step
    order as the reference ``cost_of_move``.  The no-op
    additions the uniform vector pipeline introduces (masked zero
    deltas, padded columns) only ever add ``+0.0`` to values that are
    not ``-0.0``, which is exact in IEEE-754.

    The evaluator lives for one ``plan`` call.  The snapshot is taken
    once from the estimator passed in (or handed in ready-made as
    ``bandwidth``, see :func:`bandwidth_matrix`) — the fleet layer hands
    each plan call a fresh residual view, so fresh calls get fresh
    snapshots.  Between rounds an adopted move rewrites the <=3 changed
    edge entries in place (each is an independent function of its
    endpoints, so the in-place update is bit-identical to a fresh
    recompute) while the order-sensitive reductions (occupancy, path
    sums, critical path) are recomputed with vector ops.

    What depends on the placement but not on bandwidth — the decoded
    assignment, every host gather, and per move list the cell arrays —
    is a read-only :class:`_PlacementState` kept in ``grid_cache`` under
    (host universe, assignment items), so a planner that passes a
    persistent dict reuses it across rounds and plan calls.

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
        grid_cache: "Optional[dict[tuple, object]]" = None,
        bandwidth: "Optional[np.ndarray]" = None,
    ) -> None:
        self.tree = tree
        self.cost_model = cost_model
        self.arrays = cost_model.arrays()
        #: Cell-structure and placement-state cache; a planner may pass
        #: a persistent dict so both survive across plan calls.
        self._grid_cache: dict = {} if grid_cache is None else grid_cache
        self._state = _load_state(
            self._grid_cache,
            self.arrays,
            tuple(hosts),
            tuple(placement.assignment.items()),
        )
        self.hosts = self._state.hosts
        self.host_index = self._state.host_index
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
        self._bw_flat = bandwidth.reshape(-1)
        self.startup = cost_model.startup_cost

        # Edge seconds per child node, plus one always-zero slot that
        # ``CostModelArrays.path_edge_rows`` and ``edge_pack`` aim at
        # for absent edges.
        num_nodes = len(self.arrays.node_ids)
        self._edge_slots = np.zeros(num_nodes + 1)
        self.edge_seconds = self._edge_slots[:num_nodes]
        self._queried = np.zeros((num_hosts, num_hosts), dtype=bool)
        self._queried_flat = self._queried.reshape(-1)
        self._triu = _triu_indices(num_hosts)
        #: True once every canonical host pair has been recorded — the
        #: recorded set is monotone and maximal, so recording can stop.
        self._links_complete = False
        self._host_tuple_cache: dict[tuple[str, ...], np.ndarray] = {}
        self._set_all_edges()
        self._recompute_reductions()

    # -- per-round state ----------------------------------------------------
    def _set_all_edges(self) -> None:
        arrays = self.arrays
        state = self._state
        self.edge_seconds[arrays.edge_child] = np.where(
            state.edge_cross,
            self.startup + arrays.edge_size / self._bw_flat[state.edge_bw_index],
            0.0,
        )

    def _set_edge(self, child: int) -> None:
        """Recompute one edge entry (bit-identical to a full rebuild)."""
        assign = self._state.assign
        a = assign[child]
        b = assign[self.arrays.parent[child]]
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
        order; :func:`_critical_reduction` rebuilds them with order-exact
        vector ops (O(nodes + edges + paths), trivial next to the move
        grid).
        """
        arrays = self.arrays
        state = self._state
        occ, esums, best, cost = _critical_reduction(
            arrays, state, self._edge_slots
        )
        self._occ_masked = np.where(state.occupied, occ[: len(self.hosts)], -np.inf)
        self.path_edge_sums = esums
        self.all_totals = arrays.path_node_sums + esums
        #: Index of the critical path in ``cost_model.server_paths``.
        self.critical_index = best
        self._critical = CriticalPath(
            nodes=self.cost_model.server_paths[best], cost=cost
        )

        # Per-node float snapshots that ``price_moves`` gathers per grid
        # cell, packed into one matrix so a round's edge state reaches
        # the cells in one fancy gather: current child edge seconds, the
        # node's own current edge seconds, and the latency floor over
        # paths *not* through the node.
        fpack = np.empty((4, state.assign.size))
        fpack[0:3] = self._edge_slots[arrays.edge_pack]
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
        if not self._links_complete:
            self._queried_flat[state.queried_cross] = True
            self._links_complete = bool(self._queried[self._triu].all())

    @property
    def state(self) -> _PlacementState:
        """The cached bandwidth-independent state of the current placement."""
        return self._state

    def critical_path(self) -> CriticalPath:
        """The critical path of the current placement state."""
        return self._critical

    def links_queried(self) -> frozenset:
        """Canonical host pairs consulted so far (recorder semantics).

        Once every pair is recorded the answer is the host tuple's
        all-pairs set, built once per ``grid_cache``.
        """
        if not self._links_complete:
            return self._recorded_links()
        key = (frozenset, self.hosts)
        links = self._grid_cache.get(key)
        if links is None:
            links = self._grid_cache[key] = self._recorded_links()
        return links

    def _recorded_links(self) -> frozenset:
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
        state = self._state
        key = tuple(moves)
        cached = state.cells.get(key)
        if cached is None:
            grid = self._grid_cache.get((self.hosts, key))
            if grid is None:
                grid = self._build_grid(key)
            cached = _StateCells.build(grid, state)
            state.cells[key] = cached
        if cached.cells == 0:
            return 0, best_cost, None
        grid = cached.grid
        o = grid.o

        # One fancy gather delivers the round's per-node edge state to
        # the cells; the rows come out as views.
        fcells = self._fpack[:, o]
        old_e3 = fcells[0:3]
        floor = fcells[3]

        # All three moved edges — both child inputs plus the output —
        # in one (3 x cells) pass.  The masked new edges are exactly 0.0
        # where absent or co-located, so the plain differences
        # reproduce the scalar deltas (childless rows give
        # +0.0 - +0.0 = +0.0).
        new_e3 = np.where(
            cached.masks3,
            self.startup + grid.sizes3 / self._bw_flat[cached.bw_index],
            0.0,
        )
        d3 = new_e3 - old_e3
        d1, d2, d_o = d3[0], d3[1], d3[2]
        new_eo = new_e3[2]

        # Latency: per-node unaffected floor (precomputed per round),
        # then the affected totals with the scalar's three delta adds
        # (child1, child2, own edge) in order, accumulated in place
        # (the gather above produced a fresh array).  A masked-out
        # column keeps its value, which equals adding +0.0: totals are
        # never -0.0.
        totals = self._base_totals[o]
        np.add(totals, d1[:, None], out=totals, where=grid.m1)
        np.add(totals, d2[:, None], out=totals, where=grid.m2)
        np.add(totals, d_o[:, None], out=totals, where=grid.valid)
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
            cached.flat_index,
            weights=flat_vals,
            minlength=o.size * len(self.hosts),
        ).reshape(o.size, len(self.hosts))
        bottleneck = (self._occ_masked + delta).max(axis=1)
        bottleneck = np.where(bottleneck > 0.0, bottleneck, 0.0)
        if state.any_unoccupied:
            extra = delta[grid.rows, grid.h]
            lift = cached.lift & (extra > bottleneck)
            bottleneck = np.where(lift, extra, bottleneck)
        costs = np.where(latency > bottleneck, latency, bottleneck)

        # Current-host cells are the scalar loop's ``continue``: priced
        # as +inf so they can never win, excluded from the cell count.
        costs = np.where(cached.is_current, np.inf, costs)

        # Recorder semantics for the cells' estimator queries.  A
        # current-host cell's pairs are that node's present cross
        # edges, already recorded by ``_recompute_reductions``; once
        # every pair is recorded the set is maximal and recording stops.
        if not self._links_complete:
            self._queried_flat[cached.recorded] = True
            self._links_complete = bool(self._queried[self._triu].all())

        # The running ``cost <= best`` winner is the *last* cell
        # attaining the grid minimum: argmin over the reversed costs
        # finds it in one reduction.
        flat = o.size - 1 - int(costs[::-1].argmin())
        minimum = float(costs[flat])
        if minimum <= best_cost:
            return (
                cached.cells,
                minimum,
                (self.arrays.node_ids[o[flat]], self.hosts[grid.h[flat]]),
            )
        return cached.cells, best_cost, None

    def _build_grid(self, moves: tuple) -> _MoveGrid:
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
        self._grid_cache[(self.hosts, moves)] = _frozen(grid)
        return grid

    def apply_move(self, node_id: str, host: str) -> None:
        """Adopt a move: patch the <=3 changed edges, rebuild reductions."""
        arrays = self.arrays
        node = arrays.node_index[node_id]
        if host not in self.host_index:
            raise KeyError(host)
        items = list(self._state.items)
        items[self._state.position[node_id]] = (node_id, host)
        self._state = _load_state(
            self._grid_cache, arrays, self.hosts, tuple(items)
        )
        for child in (arrays.child1[node], arrays.child2[node]):
            if child >= 0:
                self._set_edge(int(child))
        self._set_edge(node)
        self._recompute_reductions()
