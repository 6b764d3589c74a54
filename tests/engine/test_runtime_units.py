"""Runtime plumbing units: messaging, vectors-in-flight, probes."""

import pytest

from repro.engine.config import Algorithm
from repro.engine.simulation import build_simulation
from repro.net.message import MessageKind
from tests.conftest import tiny_spec


def build(algorithm=Algorithm.DOWNLOAD_ALL, **overrides):
    return build_simulation(tiny_spec(algorithm=algorithm, **overrides))


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
        assert runtime.monitoring.stats_for(None).probes_sent == 1

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
        runtime.monitoring.cache_for("client").force_set(
            "h0", "h1", first * 100, now=env.now
        )
        assert estimator("h0", "h1") == first
        assert estimator("h1", "h0") == first
        assert estimator("h0", "h0") == float("inf")
