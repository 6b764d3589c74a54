"""The one-shot placement algorithm (§2.1).

The algorithm iteratively shortens the critical path.  Each round it
examines every operator on the current critical path, prices every
single-operator relocation, and keeps the cheapest; the round's best
variation is adopted if it strictly improves the placement, and the
process repeats until no strict improvement is found.

The search is exactly the paper's pseudocode:

.. code-block:: none

    Initialization: all operators placed at the client.
    Iterative step:
      C' <- C; N' <- current placement N; K <- critical path of N
      for each operator in K:
        consider all alternative locations for the operator
        let C_min be the cost of the cheapest alternative placement
        if (C_min <= C'): C' <- C_min; N' <- cheapest placement
      if (C' < C): N <- N'; C <- C'   (and iterate again)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dataflow.cost import BandwidthEstimator, CostModel
from repro.dataflow.critical import (
    BatchMoveEvaluator,
    bandwidth_matrix,
    critical_path,
    evaluator_hosts,
)
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree
from repro.obs.events import PLANNER_SEARCH
from repro.obs.tracer import ensure_tracer
from repro.placement.base import PlanResult

#: Safety bound on improvement rounds: the search provably terminates,
#: because each round strictly decreases the cost, but float quirks
#: deserve a belt as well as braces.
MAX_ROUNDS = 200


class OneShotPlanner:
    """Iterative critical-path-shortening search.

    Parameters
    ----------
    tree:
        The combination tree.
    hosts:
        All hosts that may run operators (servers' hosts plus the client's;
        the paper's assumption 1 is that servers can host computation).
    cost_model:
        Analytic cost model pricing placements.
    server_replicas:
        Optional ``{server node id: candidate hosts}``: servers whose
        dataset is replicated may be *served* from any replica, so the
        search treats them as movable among those hosts (the paper's
        assumption 3 relaxed).
    grid_cache:
        Optional evaluator cache to share with the other one-shot and
        global planners of the same tree, cost model, hosts and replicas
        (:class:`repro.engine.simulation.PlanningContext` hands one to
        every query of a shape); None gives the planner a private one.

    Each round's whole move grid is priced in one numpy pass
    (:class:`repro.dataflow.critical.BatchMoveEvaluator`).  ``plan``
    reads the estimator once per ordered host pair, so hand it a frozen
    view (:meth:`repro.monitor.system.MonitoringSystem.snapshot`).  The
    search cache keeps one memo entry per starting placement: the last
    floored view searched from it and that search's result.  A call
    from the same start under an equal view returns that result
    without searching, whichever planner sharing the cache searched
    it.
    """

    name = "one-shot"

    def __init__(
        self,
        tree: CombinationTree,
        hosts: Sequence[str],
        cost_model: CostModel,
        server_replicas: "Optional[dict[str, tuple[str, ...]]]" = None,
        grid_cache: "Optional[dict]" = None,
    ) -> None:
        if not hosts:
            raise ValueError("need at least one candidate host")
        self.tree = tree
        self.hosts = sorted(set(hosts))
        self.cost_model = cost_model
        self.server_replicas = {
            server: tuple(replicas)
            for server, replicas in (server_replicas or {}).items()
            if len(replicas) > 1
        }
        for server in self.server_replicas:
            if server not in tree or not tree.node(server).is_server:
                raise ValueError(f"{server!r} is not a server of this tree")
        self._operator_ids = tuple(op.node_id for op in tree.operators())
        self._all_hosts = tuple(self.hosts)
        #: Persistent evaluator cache shared across plan calls: the
        #: placement-independent move grids, each visited placement's
        #: bandwidth-independent state with its candidate move lists (see
        #: :class:`repro.dataflow.critical.BatchMoveEvaluator`), the
        #: all-pairs link set of each host tuple and the search memo
        #: (see :meth:`_search`).  Only planners with this tree, cost
        #: model, host list and replicas may share it: a state, its move
        #: lists and a memoized result are valid for those alone.
        self._grid_cache: dict = {} if grid_cache is None else grid_cache

    def plan(
        self,
        estimator: BandwidthEstimator,
        initial: Placement,
        *,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult:
        """Run the search from ``initial`` using ``estimator`` for bandwidths."""
        result = self._search(estimator, initial)
        tracer = ensure_tracer(tracer)
        if tracer.enabled:
            tracer.emit(
                PLANNER_SEARCH,
                now,
                {
                    "algorithm": self.name,
                    "rounds": result.rounds,
                    "candidates": result.candidates_evaluated,
                    "links": len(result.links_queried),
                    "cost": result.cost,
                },
            )
        return result

    def price(self, estimator: BandwidthEstimator, placement: Placement) -> float:
        """Critical-path cost of ``placement``, over the search cache's state."""
        hosts = evaluator_hosts(self.hosts, placement)
        return critical_path(
            self.tree, placement, self.cost_model, estimator, hosts, self._grid_cache
        ).cost

    def _search(
        self, estimator: BandwidthEstimator, initial: Placement
    ) -> PlanResult:
        """The pseudocode's rounds, each priced as one batch.

        One :class:`BatchMoveEvaluator` carries the round state across
        the whole call.  Ties move toward the later candidate ("if
        (C_min <= C')") and only a strict improvement is adopted.

        The estimator is read once, into a floored bandwidth matrix.  The
        search is a pure function of that matrix, its host tuple and the
        starting placement in insertion order (which fixes the occupancy
        accumulation order), given what the search cache's sharing key
        already fixes.  So the cache holds one memo slot per (planner
        name, host tuple, start), storing the last matrix searched from
        there and its result: replans of a fleet's queries of one shape
        see the same floored view at the same instants, and the second
        one hands back the first's result.  The name stays in the slot
        because one-shot and global planners may share a cache, and
        ``PlanResult.algorithm`` differs between them.
        """
        hosts = evaluator_hosts(self.hosts, initial)
        bandwidth = bandwidth_matrix(
            hosts, estimator, self.cost_model.min_bandwidth
        )
        view = bandwidth.tobytes()
        slot = (PlanResult, self.name, hosts, tuple(initial.assignment.items()))
        memo = self._grid_cache.get(slot)
        if memo is not None and memo[0] == view:
            return memo[1]
        evaluator = BatchMoveEvaluator(
            self.tree,
            initial,
            self.cost_model,
            estimator,
            hosts,
            grid_cache=self._grid_cache,
            bandwidth=bandwidth,
        )
        current = initial
        current_cost = start_cost = evaluator.critical_path().cost
        rounds = 0
        candidates = 0

        for _ in range(MAX_ROUNDS):
            rounds += 1
            cells, best_cost, best_move = evaluator.price_moves(
                self._state_moves(evaluator, current), current_cost
            )
            candidates += cells
            if best_cost < current_cost and best_move is not None:
                current = current.with_move(*best_move)
                evaluator.apply_move(*best_move)
                current_cost = best_cost
            else:
                break

        result = PlanResult(
            placement=current,
            cost=current_cost,
            rounds=rounds,
            candidates_evaluated=candidates,
            links_queried=evaluator.links_queried(),
            algorithm=self.name,
            start_cost=start_cost,
        )
        self._grid_cache[slot] = (view, result)
        return result

    def _state_moves(
        self, evaluator: BatchMoveEvaluator, placement: Placement
    ) -> "tuple[tuple[str, tuple[str, ...]], ...]":
        """:meth:`_candidate_moves` of the evaluator's current state.

        The move list is a pure function of the placement state and the
        critical path, so it is cached on the state (which lives in the
        planner-owned ``_grid_cache``) per critical-path index.
        """
        moves = evaluator.state.moves
        index = evaluator.critical_index
        cached = moves.get(index)
        if cached is None:
            cached = moves[index] = tuple(
                self._candidate_moves(evaluator.critical_path(), placement)
            )
        return cached

    def _candidate_moves(
        self, path, placement: Placement
    ) -> list[tuple[str, tuple[str, ...]]]:
        """Nodes whose relocation can shorten the critical path.

        These are the operators *on* the path plus every operator placed
        on a host the path visits: under the single-NIC serialization
        model a path's cost includes its hosts' full occupancy, so
        shedding an off-path operator from a visited host shortens the
        path too.  (With download-all's initialization the critical path
        visits the client, so all operators start as candidates — which
        is how the search escapes the all-at-client congestion.)

        Operators may go to any host; replicated servers may switch to
        any of their replica hosts.
        """
        path_hosts = {placement.host_of(node_id) for node_id in path.nodes}
        candidates = set(path.operators)
        for op_id in self._operator_ids:
            if placement.host_of(op_id) in path_hosts:
                candidates.add(op_id)
        all_hosts = self._all_hosts
        moves = [(node_id, all_hosts) for node_id in sorted(candidates)]
        for server, replicas in sorted(self.server_replicas.items()):
            if server in path.nodes or placement.host_of(server) in path_hosts:
                moves.append((server, replicas))
        return moves
