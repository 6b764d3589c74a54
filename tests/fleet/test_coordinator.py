"""FleetCoordinator: claims, residual bandwidth, the token-bucket arbiter."""

from __future__ import annotations

import pytest

from repro.dataflow.placement import Placement
from repro.dataflow.tree import complete_binary_tree
from repro.fleet import (
    FleetCoordinator,
    FleetPolicy,
    canonical_link,
    link_key,
    placement_links,
    runtime_links,
)
from repro.net.host import Host
from repro.net.network import Network
from repro.obs import Tracer
from repro.obs.events import FLEET_CLAIM, FLEET_DENY, FLEET_GRANT
from repro.obs.tracer import NULL_TRACER
from repro.sim import Environment


class FakeRuntime:
    """Just enough Runtime surface for the coordinator: a tree, actual
    actor locations, and a tracer."""

    def __init__(self, tree, placement, tracer=NULL_TRACER):
        self.tree = tree
        self._hosts = dict(placement.as_dict())
        self.tracer = tracer

    def host_of(self, node_id):
        return self._hosts[node_id]

    def move(self, node_id, host):
        self._hosts[node_id] = host


def make_query(tracer=NULL_TRACER):
    tree = complete_binary_tree(4)
    server_hosts = {
        server.node_id: f"h{i}" for i, server in enumerate(tree.servers())
    }
    assignment = dict(server_hosts)
    assignment[tree.client.node_id] = "client"
    for op in tree.operators():
        assignment[op.node_id] = "client"
    placement = Placement(assignment)
    return tree, placement, FakeRuntime(tree, placement, tracer)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLinkHelpers:
    def test_canonical_link_orders(self):
        assert canonical_link("b", "a") == ("a", "b")
        assert canonical_link("a", "b") == ("a", "b")

    def test_link_key(self):
        assert link_key("h1", "h0") == "h0|h1"

    def test_placement_links_cross_host_only(self):
        tree, placement, _ = make_query()
        links = placement_links(tree, placement)
        # Every server feeds a client-resident operator over one link.
        assert links == {canonical_link(f"h{i}", "client") for i in range(4)}

    def test_runtime_links_reads_actor_locations(self):
        tree, placement, runtime = make_query()
        op = tree.operators()[0].node_id
        runtime.move(op, "h0")
        assert runtime_links(runtime) != placement_links(tree, placement)


class TestPolicy:
    def test_defaults_valid(self):
        policy = FleetPolicy()
        assert policy.mode == "coordinated"
        assert not policy.fair
        assert policy.planner_name == "fleet-coordinated"

    def test_fair_mode(self):
        assert FleetPolicy(mode="fair").fair

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="greedy"),
            dict(link_tokens=0.0),
            dict(token_refill_seconds=0.0),
            dict(fairness_reserve=-1.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FleetPolicy(**kwargs)


class TestClaimsAndResidual:
    def test_claims_count_queries_per_link(self):
        coordinator = FleetCoordinator(FleetPolicy())
        _, _, r1 = make_query()
        _, _, r2 = make_query()
        coordinator.query_launched("c0:0", r1)
        coordinator.query_launched("c1:0", r2)
        claims = coordinator.link_claims()
        assert claims[canonical_link("h0", "client")] == 2
        coordinator.query_done("c0:0")
        assert coordinator.link_claims()[canonical_link("h0", "client")] == 1

    def test_residual_discounts_other_claimants_only(self):
        coordinator = FleetCoordinator(FleetPolicy())
        _, _, r1 = make_query()
        _, _, r2 = make_query()
        coordinator.query_launched("c0:0", r1)
        coordinator.query_launched("c1:0", r2)
        raw = lambda a, b: 100.0
        mine = coordinator.residual_estimator("c0:0", raw)
        # One *other* query claims h0--client: fair share is raw / 2.
        assert mine("h0", "client") == pytest.approx(50.0)
        # Nobody moves data h0--h1: undiscounted.
        assert mine("h0", "h1") == pytest.approx(100.0)
        # Same-host "transfers" are never discounted.
        assert mine("h0", "h0") == pytest.approx(100.0)

    def test_residual_snapshot_is_stable(self):
        coordinator = FleetCoordinator(FleetPolicy())
        _, _, r1 = make_query()
        _, _, r2 = make_query()
        coordinator.query_launched("c0:0", r1)
        estimate = coordinator.residual_estimator("c1:0", lambda a, b: 100.0)
        coordinator.query_done("c0:0")  # after the snapshot: no effect
        assert estimate("h0", "client") == pytest.approx(50.0)

    def test_fake_runtime_moves_are_seen_without_a_network(self):
        coordinator = FleetCoordinator(FleetPolicy())
        tree, _, r1 = make_query()
        _, _, r2 = make_query()
        coordinator.query_launched("c0:0", r1)
        coordinator.query_launched("c1:0", r2)
        assert canonical_link("h0", "h1") not in coordinator.link_claims()
        r2.move(tree.operators()[0].node_id, "h0")
        assert coordinator.link_claims()[canonical_link("h0", "h1")] == 1
        raw = lambda a, b: 100.0
        assert coordinator.residual_estimator("c0:0", raw)("h0", "h1") == 50.0


class NetworkRuntime:
    """A runtime whose actor locations live in a real network registry."""

    def __init__(self, network, prefix, tree, placement):
        self.network = network
        self.prefix = prefix
        self.tree = tree
        self.tracer = NULL_TRACER
        for node in tree.nodes():
            network.register_actor(
                prefix + node.node_id, placement.host_of(node.node_id)
            )

    def host_of(self, node_id):
        return self.network.actor_host(self.prefix + node_id)


class TestCachedClaims:
    def setup_method(self):
        env = Environment()
        self.network = Network(env)
        for name in ("h0", "h1", "h2", "h3", "client"):
            self.network.add_host(Host(env, name))
        self.tree, placement, _ = make_query()
        self.coordinator = FleetCoordinator(FleetPolicy())
        for query_id in ("a", "b"):
            runtime = NetworkRuntime(
                self.network, f"{query_id}/", self.tree, placement
            )
            self.coordinator.query_launched(query_id, runtime)

    def test_move_actor_changes_residual_claims(self):
        raw = lambda a, b: 100.0
        before = self.coordinator.residual_estimator("a", raw)
        assert before("h0", "h1") == 100.0
        # Query b's operator over s0/s1 relocates to h0: its input from
        # h1 now crosses h0--h1.
        op = self.tree.operators()[0].node_id
        self.network.move_actor(f"b/{op}", "h0")
        after = self.coordinator.residual_estimator("a", raw)
        assert after("h0", "h1") == 50.0
        assert before("h0", "h1") == 100.0  # earlier views stay frozen
        assert self.coordinator.link_claims()[canonical_link("h0", "h1")] == 1

    def test_links_cached_until_an_actor_moves(self):
        record = self.coordinator._active["b"]
        links = record.links()
        # Registering a throwaway endpoint (a probe, a state transfer)
        # moves no existing actor.
        self.network.register_actor("probe", "h2")
        assert record.links() is links
        op = self.tree.operators()[0].node_id
        self.network.move_actor(f"b/{op}", "h0")
        moved = record.links()
        assert moved is not links
        assert moved == runtime_links(record.runtime)


class TestArbiter:
    def make(self, **policy_kwargs):
        clock = FakeClock()
        policy = FleetPolicy(**policy_kwargs)
        coordinator = FleetCoordinator(policy, clock=clock)
        return coordinator, clock

    def test_empty_moveset_always_granted(self):
        coordinator, _ = self.make()
        _, placement, runtime = make_query()
        coordinator.query_launched("q", runtime)
        assert coordinator.arbitrate("q", placement, placement, 0.0)

    def test_bucket_exhaustion_denies_then_refills(self):
        coordinator, clock = self.make(
            link_tokens=1.0, token_refill_seconds=100.0
        )
        tree, placement, runtime = make_query()
        coordinator.query_launched("q", runtime)
        op = tree.operators()[0].node_id
        moved = placement.with_move(op, "h0")
        assert coordinator.arbitrate("q", placement, moved, 0.0)
        # A *different* move touching the charged h0 bucket is denied.
        other_op = tree.operators()[1].node_id
        second = placement.with_move(other_op, "h0")
        assert not coordinator.arbitrate("q", placement, second, 1.0)
        # After a full refill period the same proposal is granted.
        clock.now = 200.0
        assert coordinator.arbitrate("q", placement, second, 200.0)

    def test_identical_proposal_charges_once(self):
        # The global controller rules on the same moveset twice per
        # round (dry run, then final plan): one ruling, one charge.
        coordinator, _ = self.make(link_tokens=1.0, token_refill_seconds=1e6)
        tree, placement, runtime = make_query()
        coordinator.query_launched("q", runtime)
        op = tree.operators()[0].node_id
        moved = placement.with_move(op, "h0")
        assert coordinator.arbitrate("q", placement, moved, 0.0)
        assert coordinator.arbitrate("q", placement, moved, 0.0)
        # The bucket was charged once, not twice: a fresh single-move
        # proposal against an uncharged host still passes.
        fresh = placement.with_move(tree.operators()[1].node_id, "h1")
        assert coordinator.arbitrate("q", placement, fresh, 0.0)

    def test_operator_move_arbitration(self):
        coordinator, clock = self.make(
            link_tokens=1.0, token_refill_seconds=100.0
        )
        _, _, runtime = make_query()
        coordinator.query_launched("q", runtime)
        assert coordinator.arbitrate_operator_move("q", "h0", "h0")
        assert coordinator.arbitrate_operator_move("q", "client", "h0")
        # h0's bucket is drained: the next inbound move is denied...
        assert not coordinator.arbitrate_operator_move("q", "h1", "h0")
        # ...and denies are free, so they never deepen the drain.
        clock.now = 100.0
        assert coordinator.arbitrate_operator_move("q", "h1", "h0")

    def test_events_and_determinism(self):
        def run():
            tracer = Tracer()
            clock = FakeClock()
            coordinator = FleetCoordinator(
                FleetPolicy(link_tokens=1.0, token_refill_seconds=100.0),
                clock=clock,
            )
            tree, placement, runtime = make_query(tracer)
            coordinator.query_launched("q", runtime, class_name="g")
            op0, op1 = (o.node_id for o in tree.operators()[:2])
            coordinator.arbitrate("q", placement, placement.with_move(op0, "h0"), 0.0)
            coordinator.arbitrate("q", placement, placement.with_move(op1, "h0"), 1.0)
            return [
                {k: v for k, v in e.items()}
                for e in tracer.events
                if e["type"].startswith("fleet.")
            ]

        a, b = run(), run()
        assert a == b
        kinds = [e["type"] for e in a]
        assert kinds[0] == FLEET_CLAIM
        assert FLEET_GRANT in kinds and FLEET_DENY in kinds
        deny = next(e for e in a if e["type"] == FLEET_DENY)
        # First sorted drained bucket: the state-transfer link.
        assert deny["bottleneck"] == "client|h0"
        assert deny["query_class"] == "g"


class TestFairMode:
    def test_worst_off_dips_into_reserve(self):
        clock = FakeClock()
        coordinator = FleetCoordinator(
            FleetPolicy(
                mode="fair",
                link_tokens=1.0,
                token_refill_seconds=100.0,
                fairness_reserve=0.5,
            ),
            clock=clock,
        )
        tree, placement, r1 = make_query()
        _, _, r2 = make_query()
        coordinator.query_launched("a", r1, slo=100.0)
        clock.now = 50.0
        coordinator.query_launched("b", r2, slo=100.0)
        op = tree.operators()[0].node_id
        moved = placement.with_move(op, "h0")
        # "a" has the worst latency-to-SLO ratio (older, same SLO): it
        # may take the bucket below the reserve.
        # "b" must leave the reserve: need 1.5 > 1.0 tokens -> denied.
        assert not coordinator.arbitrate("b", placement, moved, 50.0)
        assert coordinator.arbitrate("a", placement, moved, 50.0)

    def test_tie_break_is_seeded_and_deterministic(self):
        def worst(seed):
            coordinator = FleetCoordinator(
                FleetPolicy(mode="fair", seed=seed), clock=lambda: 0.0
            )
            _, _, r1 = make_query()
            _, _, r2 = make_query()
            coordinator.query_launched("a", r1, slo=100.0)
            coordinator.query_launched("b", r2, slo=100.0)
            return [
                qid
                for qid in ("a", "b")
                if coordinator._is_worst_off(qid, 0.0)
            ]

        assert worst(0) == worst(0)
        assert len(worst(0)) == 1  # exactly one worst-off query
