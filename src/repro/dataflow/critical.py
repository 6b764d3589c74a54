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

import functools
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
    reads = []
    for index in state.cross_bw_index.tolist():
        value = estimator(universe[index // num_hosts], universe[index % num_hosts])
        reads.append(min_bw if value < min_bw else value)
    slots = arrays.slots.copy()
    seconds = state.cross_size / np.array(reads, dtype=float)
    slots[state.cross_child] = cost_model.startup_cost + seconds
    __, best, cost = _critical_reduction(arrays, state, slots)
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


def _pair_mask(bits) -> int:
    """The bitmask with every bit of ``bits`` set (repeats allowed).

    Recorded host pairs are bitmasks: the canonical pair ``(i, j)``,
    ``i < j`` in the sorted host universe, is bit ``i * num_hosts + j``.
    """
    mask = 0
    for bit in set(bits):
        mask |= 1 << bit
    return mask


@functools.cache
def _all_pairs(num_hosts: int) -> int:
    """The bitmask of every canonical pair of ``num_hosts`` hosts."""
    return _pair_mask(
        i * num_hosts + j for i in range(num_hosts) for j in range(i + 1, num_hosts)
    )


def _at_least_zero(values: np.ndarray) -> np.ndarray:
    """Floor ``values`` at +0.0 in place, as the scalar walks do (they
    start from ``0.0`` and replace it only on a strict ``>``).  On a tie
    ``np.maximum`` returns its second operand, so ``-0.0`` comes out
    ``+0.0``."""
    return np.maximum(values, 0.0, out=values)


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

    ``price_moves`` prices a grid with one scatter-add into one segment
    per cell, then takes each segment's maximum.  A cell's segment has
    one bin per host (the host's occupancy after the move) and one per
    path through the moved node plus one for the node's latency floor
    over the other paths.  ``weight_slots`` gathers the scatter's
    inputs from ``[slot vector | kernel sums | new edges | edge
    deltas]`` (the last two 3 x cells), and its bins are the step-major
    bump targets of :class:`_StateCells` followed by ``tail_bins``.
    """

    o: np.ndarray  #: node index per cell
    h: np.ndarray  #: candidate host index per cell
    sizes3: np.ndarray  #: child1/child2/own output sizes, stacked (3 x cells)
    has3: np.ndarray  #: child1/child2 presence + all-True own row (3 x cells)
    neg_slots: np.ndarray  #: slots of minus the moved edges' old seconds (3 x cells)
    weight_slots: np.ndarray  #: the scatter's inputs (see above)
    flat_base: np.ndarray  #: first bin of each cell's segment
    #: Bins of the rest, in order: each host's occupancy, each path's
    #: total, each floor, then each path's child delta and own delta.
    tail_bins: np.ndarray

    @classmethod
    def build(
        cls, arrays, num_hosts: int, o: np.ndarray, h: np.ndarray
    ) -> "_MoveGrid":
        cells = o.size
        num_paths = arrays.num_paths
        cell = np.arange(cells)
        # Offsets in the gathered vector: the kernel's sums follow the
        # slot vector (path totals from bin P, occupancy from 2P + 1),
        # then the new edge seconds and the edge deltas, one row of
        # cells per moved edge.
        sums = arrays.slots.size
        new = sums + 2 * num_paths + 2 + num_hosts
        delta = new + 3 * cells
        neg_slots = arrays.slot_neg_edge + arrays.edge_pack[:, o]
        # The eleven occupancy bumps of ``cost_of_move`` per cell, in its
        # order: minus and plus the node seconds, then per moved edge its
        # delta, minus its old seconds and its new seconds.
        bumps = (
            arrays.slot_neg_node + o,
            arrays.slot_node + o,
            delta + cell,
            neg_slots[0],
            new + cell,
            delta + cells + cell,
            neg_slots[1],
            new + cells + cell,
            delta + 2 * cells + cell,
            neg_slots[2],
            new + 2 * cells + cell,
        )
        # Segments: the host bins, then per path through the node its
        # latency bin, then the floor's bin.
        sizes = num_hosts + arrays.affected_valid[o].sum(axis=1) + 1
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        # Each host bin adds the host's current occupancy last
        # (``occ + delta``, exactly).
        host_bins = (starts[:, None] + np.arange(num_hosts)).ravel()
        host_slots = np.tile(sums + 2 * num_paths + 1 + np.arange(num_hosts), cells)
        # A latency bin adds its path's total, then the child-1 or
        # child-2 delta if the path passes that child (else +0.0), then
        # the own-edge delta; the floor bin holds the floor alone.
        rows, cols = np.nonzero(arrays.affected_valid[o])
        node = o[rows]
        path_bins = starts[rows] + num_hosts + cols
        through = np.where(
            arrays.affected_child1[node, cols],
            delta + rows,
            np.where(
                arrays.affected_child2[node, cols],
                delta + cells + rows,
                arrays.slot_zero,
            ),
        )
        return cls(
            o=o,
            h=h,
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
                    np.ones(cells, dtype=bool),
                )
            ),
            neg_slots=neg_slots,
            weight_slots=np.concatenate(
                bumps
                + (
                    host_slots,
                    sums + num_paths + arrays.affected[node, cols],
                    arrays.slot_floor + o,
                    through,
                    delta + 2 * cells + rows,
                )
            ),
            flat_base=starts,
            tail_bins=np.concatenate(
                (host_bins, path_bins, starts + sizes - 1, path_bins, path_bins)
            ),
        )


@dataclass(frozen=True)
class _StateCells:
    """One move grid's assignment-dependent cell arrays.

    Everything ``price_moves`` derives from where nodes sit, and not
    from bandwidth, gathered once per (placement state, move list).  A
    moved edge that is absent or co-located has size and startup 0.0
    and reads the ``(0, 0)`` diagonal (``+inf``), so its new seconds
    come out exactly 0.0 without a mask.
    """

    grid: _MoveGrid
    bw_index: np.ndarray  #: flat bandwidth index of the 3 moved edges (3 x cells)
    sizes3: np.ndarray  #: the moved edges' sizes, 0.0 where masked (3 x cells)
    startup3: np.ndarray  #: the startup cost, 0.0 where masked (3 x cells)
    cur_row: np.ndarray  #: +inf where the cell's host is the node's current one
    cells: int  #: host != current cells, the scalar candidate count
    flat_index: np.ndarray  #: the bumps' bins, step-major (11 x cells, flat)
    recorded: int  #: bitmask of the canonical host pairs the cells query

    @classmethod
    def build(
        cls, grid: _MoveGrid, state: "_PlacementState", startup: float
    ) -> "_StateCells":
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
        canonical = np.minimum(src, dst) * num_hosts + np.maximum(src, dst)
        return _frozen(
            cls(
                grid=grid,
                bw_index=np.where(masks3, src * num_hosts + dst, 0),
                sizes3=np.where(masks3, grid.sizes3, 0.0),
                startup3=np.where(masks3, startup, 0.0),
                cur_row=np.where(is_current, np.inf, 0.0),
                cells=int(o.size - np.count_nonzero(is_current)),
                flat_index=np.tile(grid.flat_base, 11) + flat_cols,
                recorded=_pair_mask(canonical[masks3].tolist()),
            )
        )


@dataclass(frozen=True)
class _PlacementState:
    """The bandwidth-independent evaluator state of one placement.

    A function of (host universe, assignment in insertion order) only:
    the int assignment, the kernel's scatter, the edge and path host
    gathers, the per-node host pack ``price_moves`` reads, and per move
    list the cell arrays (``cells``).  Periodic replans start from and
    walk through the same few placements again and again, so the
    planner keeps these in its ``_grid_cache`` and a revisited placement
    skips the decode and every gather.  The arrays are read-only; only
    ``cells`` and the planner's ``moves`` grow.
    """

    hosts: tuple[str, ...]
    host_index: dict
    items: tuple  #: the assignment's items, in insertion order
    position: dict  #: node id -> its index in ``items``
    assign: np.ndarray  #: host index per node
    #: The kernel's scatter bins: occupancy (nodes in assignment order,
    #: then child/parent per edge), then the path walk.
    occ_index: np.ndarray
    occ_slots: np.ndarray  #: the slot each scattered term reads
    path_bins: np.ndarray  #: occupancy bin per (path, depth); 0.0 past the end
    cross_child: np.ndarray  #: child node of each cross-host edge, edge order
    cross_size: np.ndarray  #: its output size
    cross_bw_index: np.ndarray  #: its flat bandwidth index
    ipack: np.ndarray  #: own / child1 / child2 / parent host, bump targets
    queried: int  #: bitmask of the canonical pairs of cross-host edges
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

        # Occupancy terms in the scalar sequence: node seconds in
        # assignment order, then child/parent interleaved per edge; the
        # occupancy bins follow the walk's 2P + 1.
        child_hosts = assign[arrays.edge_child]
        parent_hosts = assign[arrays.edge_parent]
        endpoints = np.empty(2 * child_hosts.size, dtype=np.intp)
        endpoints[0::2] = child_hosts
        endpoints[1::2] = parent_hosts
        cross = child_hosts != parent_hosts
        occupancy = 2 * arrays.num_paths + 1

        # A childless slot aims the masked zero delta at the node's own
        # host, a no-op add.
        ipack = np.empty((6, assign.size), dtype=np.intp)
        ipack[0] = assign
        ipack[1] = assign[arrays.child1_clamped]
        ipack[2] = assign[arrays.child2_clamped]
        ipack[3] = assign[arrays.parent_clamped]
        ipack[4] = np.where(arrays.has_child1, ipack[1], assign)
        ipack[5] = np.where(arrays.has_child2, ipack[2], assign)

        canonical = (
            np.minimum(child_hosts, parent_hosts) * num_hosts
            + np.maximum(child_hosts, parent_hosts)
        )
        return _frozen(
            cls(
                hosts=universe,
                host_index=host_index,
                items=items,
                position={node_id: i for i, (node_id, _) in enumerate(items)},
                assign=assign,
                occ_index=np.concatenate(
                    (occupancy + assign[order], occupancy + endpoints, arrays.walk_bins)
                ),
                occ_slots=np.concatenate(
                    (
                        arrays.slot_node + order,
                        np.repeat(arrays.edge_child, 2),
                        arrays.walk_slots,
                    )
                ),
                path_bins=occupancy
                + np.where(
                    arrays.path_nodes_valid,
                    assign[arrays.path_nodes_clamped],
                    num_hosts,
                ),
                cross_child=arrays.edge_child[cross],
                cross_size=arrays.edge_size[cross],
                cross_bw_index=(child_hosts * num_hosts + parent_hosts)[cross],
                ipack=ipack,
                queried=_pair_mask(canonical[cross].tolist()),
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
    arrays, state: _PlacementState, slots: np.ndarray
) -> "tuple[np.ndarray, int, float]":
    """The critical path of one placement state, order-exact.

    ``slots`` is a slot vector (``CostModelArrays.slots`` with each
    cross-host edge's seconds written in).  Returns ``(sums, critical
    path index, cost)``: ``sums`` holds per path its latency and its
    node plus edge sum, then -inf, then per host its occupancy and one
    +0.0 bin for the path slots past each path's end.

    Floating-point addition is not associative, so every accumulation
    follows the path walk of the scalar oracle
    (``tests/oracles/scalar_pricer.py``), in one in-order scatter
    (``np.bincount`` adds its inputs in sequence): occupancy adds node
    seconds in assignment order, then child/parent interleaved per edge
    in edge order; a path's latency starts from its node sum — bitwise
    the walk's left-to-right node additions — and adds its edges in path
    order, never pairwise.  A path's node plus edge sum (the total the
    move grid starts from) adds the edges from +0.0 and then the node
    sum: addition commutes, so that is ``node sum + edge sum`` exactly.
    """
    num_paths = arrays.num_paths
    sums = np.bincount(
        state.occ_index,
        weights=slots[state.occ_slots],
        minlength=2 * num_paths + 2 + len(state.hosts),
    )

    # Bottleneck as an order-free max; the first index attaining the
    # maximum wins, like the walk's strict-> running compare.
    costs = np.maximum(sums[:num_paths], sums[state.path_bins].max(axis=1))
    best = int(costs.argmax())
    return sums, best, float(costs[best])


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
    its occupancy bumps and per-path edge deltas in the same order as
    the reference ``cost_of_move``, all in one in-order scatter.  The
    no-op additions the uniform vector pipeline introduces (zero deltas,
    co-located edges) only ever add ``+0.0`` to values that are not
    ``-0.0``, which is exact in IEEE-754.

    The evaluator lives for one ``plan`` call.  The snapshot is taken
    once from the estimator passed in (or handed in ready-made as
    ``bandwidth``, see :func:`bandwidth_matrix`) — the fleet layer hands
    each plan call a fresh residual view, so fresh calls get fresh
    snapshots.  Between rounds an adopted move rewrites the <=3 changed
    edge entries in place (each is an independent function of its
    endpoints, so the in-place update is bit-identical to a fresh
    recompute) while the order-sensitive reductions (occupancy, path
    sums, critical path) are recomputed with vector ops.  A round's
    float state is one slot vector (see
    :class:`~repro.dataflow.cost.CostModelArrays`) plus the kernel's
    sums, which the move grid reads with a single gather.

    What depends on the placement but not on bandwidth — the decoded
    assignment, every host gather, and per move list the cell arrays —
    is a read-only :class:`_PlacementState` kept in ``grid_cache`` under
    (host universe, assignment items), so a planner that passes a
    persistent dict reuses it across rounds and plan calls.

    Queried links mirror :class:`repro.dataflow.cost.RecordingEstimator`:
    the cross-host edges every round's occupancy pass consults, plus
    each cell's (child host, new host) and (new host, parent host) pairs
    when the endpoints differ.  They are kept as a bitmask of canonical
    pairs (see :func:`_pair_mask`); hosts are index-sorted by name, so
    ``i < j`` is exactly the recorder's ``(a, b) if a < b``
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
        arrays = self.arrays = cost_model.arrays()
        #: Cell-structure and placement-state cache; a planner may pass
        #: a persistent dict so both survive across plan calls.
        self._grid_cache: dict = {} if grid_cache is None else grid_cache
        state = self._state = _load_state(
            self._grid_cache,
            arrays,
            tuple(hosts),
            tuple(placement.assignment.items()),
        )
        self.hosts = state.hosts
        self.host_index = state.host_index
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

        # The slot vector, its cross-host edges priced, and views of the
        # slots each round rewrites.
        slots = self._slots = arrays.slots.copy()
        slots[state.cross_child] = (
            self.startup + state.cross_size / self._bw_flat[state.cross_bw_index]
        )
        self._edges = slots[: arrays.slot_neg_edge]
        self._neg_edges = slots[arrays.slot_neg_edge : arrays.slot_node]
        self._floor = slots[arrays.slot_floor :]
        self._links = 0
        self._all_pairs = _all_pairs(num_hosts)
        #: True once every canonical host pair has been recorded — the
        #: recorded set is monotone and maximal, so recording can stop.
        self._links_complete = False
        self._recompute_reductions()

    # -- per-round state ----------------------------------------------------
    def _set_edge(self, child: int) -> None:
        """Recompute one edge entry (bit-identical to a full rebuild)."""
        assign = self._state.assign
        a = assign[child]
        b = assign[self.arrays.parent[child]]
        if a == b:
            self._slots[child] = 0.0
        else:
            self._slots[child] = (
                self.startup + self.arrays.sizes[child] / self._bw[a, b]
            )

    def _recompute_reductions(self) -> None:
        """Order-sensitive accumulations, recomputed per placement state.

        Occupancy and path sums are sequential scalar accumulations, so
        they cannot be patched incrementally without changing addition
        order; :func:`_critical_reduction` rebuilds them with order-exact
        vector ops (O(nodes + edges + paths), trivial next to the move
        grid).  Then the slots ``price_moves`` gathers per grid cell:
        the negated edge seconds and per node the latency floor over the
        paths *not* through it.
        """
        arrays = self.arrays
        state = self._state
        sums, best, cost = _critical_reduction(arrays, state, self._slots)
        self._sums = sums
        #: Index of the critical path in ``cost_model.server_paths``.
        self.critical_index = best
        self._cost = cost
        np.negative(self._edges, out=self._neg_edges)
        sums[arrays.offpath_bins].max(axis=1, out=self._floor)
        _at_least_zero(self._floor)

        # The scalar round consults every cross-host edge of the current
        # placement (critical path + evaluator construction).
        if not self._links_complete:
            self._links |= state.queried
            self._links_complete = self._links == self._all_pairs

    @property
    def state(self) -> _PlacementState:
        """The cached bandwidth-independent state of the current placement."""
        return self._state

    def critical_path(self) -> CriticalPath:
        """The critical path of the current placement state."""
        return CriticalPath(
            nodes=self.cost_model.server_paths[self.critical_index], cost=self._cost
        )

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
        hosts = self.hosts
        num_hosts = len(hosts)
        mask = self._links
        return frozenset(
            (hosts[bit // num_hosts], hosts[bit % num_hosts])
            for bit in range(mask.bit_length())
            if mask >> bit & 1
        )

    # -- the batched move grid ----------------------------------------------
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
            cached = _StateCells.build(grid, state, self.startup)
            state.cells[key] = cached
        if cached.cells == 0:
            return 0, best_cost, None
        grid = cached.grid
        o = grid.o
        slots = self._slots

        # All three moved edges — both child inputs plus the output — in
        # one (3 x cells) pass.  Masked new edges are exactly 0.0, so the
        # plain deltas reproduce the scalar ones (childless rows give
        # +0.0 + -0.0 = +0.0, and x + -y is bitwise x - y).
        new_e3 = self._bw_flat[cached.bw_index]
        np.divide(cached.sizes3, new_e3, out=new_e3)
        np.add(new_e3, cached.startup3, out=new_e3)
        weights = np.concatenate(
            (slots, self._sums, new_e3, new_e3 + slots[grid.neg_slots]), axis=None
        )

        # One sequential scatter-add prices every cell.  ``np.bincount``
        # scans its input in order, so each host bin accumulates the
        # eleven occupancy bumps of ``cost_of_move`` in its exact dict
        # order (step-major: step 0 for all cells, then step 1, ...;
        # childless slots add exact-zero no-ops) and then the host's
        # current occupancy, ``occ + delta`` exactly; each path bin
        # accumulates the path's total and then the scalar's child and
        # own-edge deltas in order.  An unoccupied host holds +0.0 and
        # only the cell's own target bumps it, so a segment's maximum is
        # the scalar's max over occupied hosts, its unoccupied-target
        # case, and the latency (the floor bin covers unaffected paths).
        table = np.bincount(
            np.concatenate((cached.flat_index, grid.tail_bins)),
            weights=weights[grid.weight_slots],
        )
        costs = np.maximum.reduceat(table, grid.flat_base)

        # Current-host cells are the scalar loop's ``continue``: priced
        # as +inf so they can never win, excluded from the cell count.
        np.add(costs, cached.cur_row, out=costs)

        # Recorder semantics for the cells' estimator queries.  A
        # current-host cell's pairs are that node's present cross
        # edges, already recorded by ``_recompute_reductions``; once
        # every pair is recorded the set is maximal and recording stops.
        if not self._links_complete:
            self._links |= cached.recorded
            self._links_complete = self._links == self._all_pairs

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
        host_index = self.host_index
        node_parts: list[np.ndarray] = []
        host_parts: list[np.ndarray] = []
        for node_id, candidate_hosts in moves:
            hidx = np.array([host_index[h] for h in candidate_hosts], dtype=np.intp)
            host_parts.append(hidx)
            node_parts.append(
                np.full(hidx.size, arrays.node_index[node_id], dtype=np.intp)
            )
        if node_parts:
            o = np.concatenate(node_parts)
            h = np.concatenate(host_parts)
        else:
            o = np.empty(0, dtype=np.intp)
            h = np.empty(0, dtype=np.intp)
        grid = _MoveGrid.build(arrays, len(self.hosts), o, h)
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
