"""Runtime plumbing units: messaging, vectors-in-flight, probes."""

import pytest

from repro.app.images import ImageWorkload
from repro.engine.actors import OperatorActor
from repro.engine.config import Algorithm
from repro.engine.runtime import Runtime
from repro.engine.simulation import build_simulation, build_substrate, build_tree
from repro.net.host import Host
from repro.net.message import MessageKind
from repro.placement.download_all import download_all_placement
from repro.sim import Environment
from tests.conftest import tiny_spec


def build(algorithm=Algorithm.DOWNLOAD_ALL, **overrides):
    return build_simulation(tiny_spec(algorithm=algorithm, **overrides))


def bare_runtimes(namespaces):
    """One runtime per namespace on a shared substrate, all operators at
    the client (download-all) and no actor process started, so a test
    alone decides what each actor reads."""
    spec = tiny_spec(Algorithm.GLOBAL)
    env = Environment()
    network, monitoring = build_substrate(env, spec, spec.link_traces, None)
    tree = build_tree(spec)
    server_hosts = {
        server.node_id: spec.server_hosts[index]
        for index, server in enumerate(tree.servers())
    }
    placement = download_all_placement(tree, server_hosts, spec.client_host)
    workload = ImageWorkload.generate(
        spec.num_servers,
        spec.images_per_server,
        spec.mean_image_size,
        spec.image_rel_std,
        seed=spec.workload_seed,
    )
    runtimes = [
        Runtime(
            env,
            network,
            monitoring,
            tree,
            workload,
            spec,
            placement,
            namespace=namespace,
            query_id=namespace or None,
        )
        for namespace in namespaces
    ]
    return env, network, runtimes


class TestSend:
    def test_local_mode_attaches_vectors(self):
        env, runtime = build(Algorithm.LOCAL)
        message = runtime.send(
            MessageKind.DEMAND, "client", "s0", 0,
            payload={"type": "noop"},
            dst_host=runtime.pinned_hosts["s0"],
        )
        assert "_vec_ts" in message.payload
        assert "_vec_loc" in message.payload
        assert message.payload["_from_host"] == "client"

    def test_non_local_mode_skips_vectors(self):
        env, runtime = build(Algorithm.GLOBAL)
        message = runtime.send(
            MessageKind.DEMAND, "client", "s0", 0,
            payload={"type": "noop"},
            dst_host=runtime.pinned_hosts["s0"],
        )
        assert "_vec_ts" not in message.payload

    def test_barrier_priority_switch(self):
        env, runtime = build(barrier_priority=True)
        assert runtime.barrier_msg_priority() == 0
        env2, runtime2 = build(barrier_priority=False)
        assert runtime2.barrier_msg_priority() == 3


class TestIngestVectors:
    def test_dominant_vector_overwrites(self):
        env, runtime = build(Algorithm.LOCAL)
        ops = sorted(runtime.operators) or [
            op.node_id for op in runtime.tree.operators()
        ]
        target = ops[0]
        incoming_ts = {op: 1 for op in runtime.vectors["h0"].timestamps}
        incoming_loc = {op: "h2" for op in incoming_ts}

        class Fake:
            payload = {
                "type": "noop",
                "_vec_ts": incoming_ts,
                "_vec_loc": incoming_loc,
                "_from_host": "h2",
            }
            src_actor = target

        runtime.ingest_vectors(Fake(), "h0")
        assert runtime.vectors["h0"].locations[target] == "h2"

    def test_plain_message_ignored(self):
        env, runtime = build(Algorithm.LOCAL)

        class Fake:
            payload = {"type": "noop"}
            src_actor = "x"

        before = dict(runtime.vectors["h0"].locations)
        runtime.ingest_vectors(Fake(), "h0")
        assert runtime.vectors["h0"].locations == before


class TestRelocate:
    def test_relocate_counts_and_reregisters(self):
        env, runtime = build(Algorithm.GLOBAL)
        op = runtime.tree.operators()[0].node_id
        old = runtime.host_of(op)
        target = "h2" if old != "h2" else "h3"

        def mover(env):
            yield from runtime.relocate(op, target)

        env.process(mover(env))
        env.run(until=30.0)
        assert runtime.host_of(op) == target
        assert runtime.metrics.relocations == 1
        assert runtime.metrics.relocation_events[0].actor == op

    def test_relocate_same_host_is_free(self):
        env, runtime = build(Algorithm.GLOBAL)
        op = runtime.tree.operators()[0].node_id
        here = runtime.host_of(op)

        def mover(env):
            yield from runtime.relocate(op, here)

        env.process(mover(env))
        env.run(until=10.0)
        assert runtime.metrics.relocations == 0

    def test_relocate_redelivers_pending_mail(self):
        env, runtime = build(Algorithm.GLOBAL)
        op = runtime.tree.operators()[0].node_id
        old = runtime.host_of(op)
        from repro.net.message import Message

        parked = Message(MessageKind.DATA, "x", op, 10, payload={"type": "noop"})
        runtime.network.hosts[old].mailbox(op).deliver(parked)

        def mover(env):
            yield from runtime.relocate(op, "h3")

        env.process(mover(env))
        env.run(until=30.0)
        assert len(runtime.network.hosts["h3"].mailbox(op)) >= 1


class TestActorEpoch:
    """The registry epoch moves once per real move and never for a
    throwaway endpoint (probe, probe control, state transfer)."""

    def test_remote_probes_leave_the_epoch_alone(self):
        env, runtime = build(Algorithm.GLOBAL)
        network = runtime.network
        epoch = network.actor_epoch
        registry = dict(network.actor_hosts)

        def prober(env):
            yield from runtime.remote_probe("client", "h0", "h1")
            yield from runtime.remote_probe("client", "client", "h2")

        env.process(prober(env))
        env.run(until=120.0)
        assert runtime.network.stats_for(None).probes_sent == 2
        assert network.actor_epoch == epoch
        assert network.actor_hosts == registry

    def test_each_real_move_bumps_the_epoch_once(self):
        env, runtime = build(Algorithm.GLOBAL)
        network = runtime.network
        op = runtime.tree.operators()[0].node_id
        home = runtime.host_of(op)
        away = "h2" if home != "h2" else "h3"
        registry = dict(network.actor_hosts)
        epochs = []

        def mover(env):
            for target in (away, away, home):
                yield from runtime.relocate(op, target)
                epochs.append(network.actor_epoch)

        start = network.actor_epoch
        env.process(mover(env))
        env.run(until=60.0)
        assert runtime.metrics.relocations == 2
        assert epochs == [start + 1, start + 1, start + 2]
        assert network.actor_hosts == registry


class TestActorAddressCache:
    """An actor resolves its mailbox once per registry epoch; a move
    bumps the epoch, so the cache never outlives the mailbox it holds."""

    @pytest.mark.parametrize(
        "namespaces", [("",), ("q0/", "q1/")], ids=["single-query", "fleet"]
    )
    def test_mailbox_follows_a_round_trip(self, namespaces):
        env, network, runtimes = bare_runtimes(namespaces)
        runtime = runtimes[-1]
        node = runtime.tree.operators()[0]
        actor = OperatorActor(runtime, node)
        # A same-named operator of another query on the shared network.
        bystander = OperatorActor(runtimes[0], node) if len(runtimes) > 1 else None
        home = runtime.host_of(node.node_id)
        away = "h2"
        assert home != away
        first = actor.mailbox()
        assert first is network.hosts[home].mailbox(actor.net_id)

        for target in (away, home):
            env.process(runtime.relocate(node.node_id, target))
            env.run()
            assert runtime.host_of(node.node_id) == target
            box = actor.mailbox()
            assert box is network.hosts[target].mailbox(actor.net_id)
            # The mailbox of the first stay at home was detached by the
            # first move; coming back home must not resurrect it.
            assert box is not first
            message = runtime.send(
                MessageKind.CONTROL,
                runtime.tree.client.node_id,
                node.node_id,
                0,
                payload={"type": "noop"},
                dst_host=target,
            )
            env.run()
            received = actor.mailbox().get()
            assert received.triggered and received.value is message
            if bystander is not None:
                assert bystander.net_id != actor.net_id
                assert bystander.mailbox() is network.hosts[home].mailbox(
                    bystander.net_id
                )
        assert runtime.metrics.relocations == 2


class TestThrowawayEndpoints:
    """Probe, probe-control and state-transfer endpoints are never
    registered, so delivering to them opens no mailbox anywhere."""

    def test_no_mailbox_for_unregistered_actors(self, monkeypatch):
        env, runtime = build(Algorithm.GLOBAL)
        network = runtime.network
        opened = []
        mailbox = Host.mailbox

        def recording(host, actor):
            opened.append(actor)
            return mailbox(host, actor)

        monkeypatch.setattr(Host, "mailbox", recording)
        op = runtime.tree.operators()[0].node_id
        target = "h2" if runtime.host_of(op) != "h2" else "h3"

        def moves(env):
            yield from runtime.monitoring.probe("h0", "h1")
            yield from runtime.remote_probe("client", "h0", "h1")
            yield from runtime.relocate(op, target)

        env.process(moves(env))
        env.run(until=300.0)
        assert runtime.network.stats_for(None).probes_sent == 2
        assert runtime.metrics.relocations == 1
        assert op in opened  # the moved operator's new mailbox
        assert set(opened) <= set(network.actor_hosts)


class TestRemoteProbe:
    def test_endpoint_probe_direct(self):
        env, runtime = build(Algorithm.GLOBAL)
        results = []

        def prober(env):
            bandwidth = yield from runtime.remote_probe("client", "client", "h0")
            results.append(bandwidth)

        env.process(prober(env))
        env.run(until=60.0)
        assert results and results[0] > 0
        # Direct probe: exactly one message.
        assert runtime.network.stats_for(None).probes_sent == 1

    def test_third_party_probe_updates_requester_cache(self):
        env, runtime = build(Algorithm.GLOBAL)
        results = []

        def prober(env):
            bandwidth = yield from runtime.remote_probe("client", "h0", "h1")
            results.append(bandwidth)

        env.process(prober(env))
        env.run(until=60.0)
        estimate = runtime.monitoring.estimate("client", "h0", "h1", env.now)
        assert estimate.quality in ("fresh", "stale")
        assert results[0] == pytest.approx(estimate.bandwidth, rel=0.2)


class TestSnapshotEstimator:
    def test_matrix_frozen(self):
        env, runtime = build(Algorithm.GLOBAL)
        estimator = runtime.snapshot_estimator("client")
        first = estimator("h0", "h1")
        # Mutate the cache afterwards: the snapshot must not change.
        assert runtime.monitoring.cache_for("client").update(
            "h0", "h1", first * 100, now=env.now + 1.0
        )
        assert estimator("h0", "h1") == first
        assert estimator("h1", "h0") == first
        assert estimator("h0", "h0") == float("inf")
