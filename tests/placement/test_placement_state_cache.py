"""Warm planners reuse cached placement states and still plan exactly.

A planner keeps each placement's bandwidth-independent evaluator state
(``repro.dataflow.critical._PlacementState``) in its ``_grid_cache``
across plan calls.  A warm planner fed a sequence of replans must
return, field for field, what a cold planner and the scalar oracle
return; the cached arrays must be read-only; and no two planners share
a state.
"""

import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.cost import CostModel
from repro.dataflow.placement import Placement
from repro.dataflow.critical import _MoveGrid, _PlacementState, _StateCells
from repro.dataflow.tree import complete_binary_tree, left_deep_tree
from repro.placement import GlobalPlanner, OneShotPlanner, download_all_placement
from tests.oracles.scalar_planner import scalar_search

TREES = {"binary": complete_binary_tree, "left-deep": left_deep_tree}
DRIFTS = (0.01, 0.5, 0.9, 1.1, 2.0, 50.0)


def table_estimator(table):
    """A pure asymmetric estimator over a frozen copy of ``table``."""
    frozen = dict(table)
    return lambda a, b: frozen[(a, b)]


def assert_same(got, want):
    for field in fields(want):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


@st.composite
def fleets(draw):
    """A tree, its hosts and cost model, optional replicas, a rate table."""
    tree = TREES[draw(st.sampled_from(sorted(TREES)))](draw(st.integers(2, 4)))
    # Servers may share hosts and idle hosts may join, so searches start
    # from (and walk through) placements that leave hosts unoccupied.
    shared = draw(st.integers(1, len(tree.servers())))
    server_hosts = {
        server.node_id: f"h{i % shared}"
        for i, server in enumerate(tree.servers())
    }
    idle = [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    hosts = sorted({*server_hosts.values(), "client", *idle})
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = {node.node_id: rng.uniform(1e4, 1e6) for node in tree.nodes()}
    model = CostModel(tree, sizes, startup_cost=0.05, disk_rate=3e6)
    replicas = None
    if draw(st.booleans()):
        replicas = {
            server: (host, draw(st.sampled_from(hosts)))
            for server, host in server_hosts.items()
        }
    table = {
        (a, b): rng.uniform(1e4, 1e7)
        if rng.random() > 0.1
        else model.min_bandwidth * rng.uniform(0.1, 0.9)
        for a in hosts
        for b in hosts
        if a != b
    }
    return tree, hosts, model, replicas, server_hosts, table


@settings(max_examples=60, deadline=None)
@given(fleet=fleets(), data=st.data())
def test_warm_planners_match_cold_and_scalar(fleet, data):
    tree, hosts, model, replicas, server_hosts, table = fleet
    pairs = sorted(table)
    operators = [op.node_id for op in tree.operators()]
    download = download_all_placement(tree, server_hosts, "client")
    warm_one = OneShotPlanner(tree, hosts, model, replicas)
    warm_global = GlobalPlanner(tree, hosts, model, replicas)
    starts = [download]
    for _ in range(data.draw(st.integers(2, 5), label="calls")):
        # Drift some links (in one direction only), or none: an
        # unchanged view on an unchanged start is a memo hit.
        for pair in data.draw(
            st.lists(st.sampled_from(pairs), max_size=4), label="drifted"
        ):
            table[pair] *= data.draw(st.sampled_from(DRIFTS))
        kind = data.draw(
            st.sampled_from(("revisit", "previous plan", "reorder", "scatter")),
            label="start",
        )
        if kind == "revisit":
            start = data.draw(st.sampled_from(starts), label="revisited")
        elif kind == "previous plan":
            start = starts[-1]
        elif kind == "reorder":
            # The same assignment in another insertion order sums each
            # host's occupancy in another order: a different state.
            items = data.draw(st.permutations(starts[-1].items()))
            start = Placement(dict(items))
        else:
            start = starts[-1]
            for op in data.draw(st.lists(st.sampled_from(operators), max_size=3)):
                start = start.with_move(op, data.draw(st.sampled_from(hosts)))
        estimator = table_estimator(table)

        cold = OneShotPlanner(tree, hosts, model, replicas)
        want = scalar_search(cold, estimator, start)
        assert_same(warm_one.plan(estimator, start), want)
        assert_same(cold.plan(estimator, start), want)
        want_global = replace(want, algorithm="global")
        assert_same(warm_global.plan(estimator, start), want_global)
        cold_global = GlobalPlanner(tree, hosts, model, replicas)
        assert_same(cold_global.plan(estimator, start), want_global)
        starts += [start, want.placement]


TREE = complete_binary_tree(4)
HOSTS = [f"h{i}" for i in range(4)] + ["client", "idle"]


def planned(tree=TREE):
    """A planner after two replans (one drifted link), and its start."""
    model = CostModel(tree, {node.node_id: 1e5 for node in tree.nodes()})
    server_hosts = {server.node_id: f"h{i}" for i, server in enumerate(tree.servers())}
    start = download_all_placement(tree, server_hosts, "client")
    planner = OneShotPlanner(tree, HOSTS, model)
    table = {
        (a, b): 1e4 * (1 + (len(a) * 7 + len(b) * 3 + i) % 5)
        for i, (a, b) in enumerate(
            (a, b) for a in sorted(HOSTS) for b in sorted(HOSTS) if a != b
        )
    }
    planner.plan(table_estimator(table), start)
    table[("client", "h0")] *= 3.0
    planner.plan(table_estimator(table), start)
    return planner, start


def cached(planner, kind):
    return [value for value in planner._grid_cache.values() if isinstance(value, kind)]


def cached_arrays(planner):
    """Every array of every cached grid, state and state's cell set."""
    states = cached(planner, _PlacementState)
    entries = cached(planner, _MoveGrid) + states
    entries += [cells for state in states for cells in state.cells.values()]
    assert any(isinstance(entry, _StateCells) for entry in entries)
    for entry in entries:
        for field in fields(entry):
            value = getattr(entry, field.name)
            if isinstance(value, np.ndarray):
                yield field.name, value


class TestPlacementStateCache:
    def test_replan_from_the_same_start_reuses_its_state(self, monkeypatch):
        built = []
        original = _PlacementState.build.__func__

        def build(cls, arrays, hosts, items):
            built.append(items)
            return original(cls, arrays, hosts, items)

        monkeypatch.setattr(_PlacementState, "build", classmethod(build))
        planner, start = planned()
        assert built.count(tuple(start.assignment.items())) == 1
        states = cached(planner, _PlacementState)
        assert len(states) == len(set(built))
        # Some cached state leaves a host of its universe without a node.
        assert any(
            len(set(state.assign.tolist())) < len(state.hosts) for state in states
        )

    def test_insertion_order_is_part_of_the_key(self):
        # Occupancy sums follow the placement's insertion order, so the
        # same assignment in another order needs a state of its own.
        planner, start = planned()
        reordered = Placement(dict(reversed(start.assignment.items())))
        planner.plan(lambda a, b: 2e4, reordered)
        states = [
            state
            for state in cached(planner, _PlacementState)
            if dict(state.items) == start.assignment
        ]
        assert len(states) == 2
        assert not np.array_equal(states[0].occ_index, states[1].occ_index)

    def test_cached_arrays_are_read_only(self):
        planner, _ = planned()
        arrays = list(cached_arrays(planner))
        assert {name for name, _ in arrays} >= {
            "assign",
            "ipack",
            "occ_index",
            "bw_index",
            "flat_index",
            "o",
            "flat_base",
        }
        for name, array in arrays:
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_planners_never_share_states(self):
        # Both trees name their nodes alike, so equal host tuples and
        # equal assignments give equal keys: only the planner-owned
        # cache keeps the two structures apart.
        binary, _ = planned(complete_binary_tree(4))
        deep, _ = planned(left_deep_tree(4))
        binary_states = cached(binary, _PlacementState)
        deep_states = cached(deep, _PlacementState)
        assert binary._grid_cache is not deep._grid_cache
        assert {id(s) for s in binary_states}.isdisjoint(
            id(s) for s in deep_states
        )
        shared_keys = {s.items for s in binary_states} & {
            s.items for s in deep_states
        }
        assert shared_keys
        for items in shared_keys:
            (a,) = [s for s in binary_states if s.items == items]
            (b,) = [s for s in deep_states if s.items == items]
            assert a.hosts == b.hosts
            assert not np.array_equal(a.ipack, b.ipack)

    def test_candidate_moves_built_once_per_state_and_critical_path(
        self, monkeypatch
    ):
        # Replans that revisit placements reuse each (placement state,
        # critical path) move list, and still plan like cold planners.
        built = []
        original = OneShotPlanner._candidate_moves

        def candidate_moves(self, path, placement):
            built.append((self, tuple(placement.assignment.items()), path.nodes))
            return original(self, path, placement)

        monkeypatch.setattr(OneShotPlanner, "_candidate_moves", candidate_moves)
        planner, start = planned()
        model = planner.cost_model
        rng = random.Random(5)
        table = {(a, b): rng.uniform(1e4, 1e6) for a in HOSTS for b in HOSTS if a != b}
        starts = [start]
        rounds = 0
        before = len(built)
        for _ in range(8):
            for pair in rng.sample(sorted(table), 3):
                table[pair] *= rng.choice(DRIFTS)
            estimator = table_estimator(table)
            begin = rng.choice(starts)
            got = planner.plan(estimator, begin)
            rounds += got.rounds
            assert_same(got, OneShotPlanner(TREE, HOSTS, model).plan(estimator, begin))
            starts.append(got.placement)
        warm = [key for key in built if key[0] is planner]
        assert len(warm) == len(set(warm))
        # Fewer lists built than rounds searched: revisits hit.
        assert len([key for key in built[before:] if key[0] is planner]) < rounds
        states = cached(planner, _PlacementState)
        assert sum(len(state.moves) for state in states) == len(warm)
