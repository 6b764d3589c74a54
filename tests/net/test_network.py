"""Network transfer engine: NIC serialization, priorities, forwarding."""

import pytest

from repro.net.host import Host
from repro.net.link import Link
from repro.net.message import Message, MessageKind
from repro.net.network import Network, TransferObservation
from repro.traces import constant_trace
from tests.oracles.full_des import full_des


def build_network(env, hosts=("a", "b", "c"), rate=1000.0, startup=0.0):
    net = Network(env)
    for name in hosts:
        net.add_host(Host(env, name))
    for i, x in enumerate(hosts):
        for y in hosts[i + 1 :]:
            net.add_link(Link(x, y, constant_trace(rate), startup_cost=startup))
    return net


def data_message(src, dst, size=1000, priority=None):
    # Sizes here are payloads; wire size adds the 256-byte header.
    return Message(MessageKind.DATA, src, dst, size, priority=priority)


class TestTopology:
    def test_duplicate_host_rejected(self, env):
        net = Network(env)
        net.add_host(Host(env, "a"))
        with pytest.raises(ValueError):
            net.add_host(Host(env, "a"))

    def test_link_requires_known_hosts(self, env):
        net = Network(env)
        net.add_host(Host(env, "a"))
        with pytest.raises(ValueError):
            net.add_link(Link("a", "ghost", constant_trace(10)))

    def test_duplicate_link_rejected(self, env):
        net = build_network(env, hosts=("a", "b"))
        with pytest.raises(ValueError):
            net.add_link(Link("a", "b", constant_trace(10)))

    def test_link_lookup_symmetric(self, env):
        net = build_network(env)
        assert net.link("a", "b") is net.link("b", "a")
        with pytest.raises(KeyError):
            net.link("a", "ghost")

    def test_bandwidth_oracles(self, env):
        net = build_network(env, rate=123.0)
        assert net.mean_bandwidth("a", "b", 0, 10) == 123.0
        assert net.mean_bandwidth("a", "a", 0, 10) == float("inf")

    def test_mean_bandwidth_invalid_window_rejected(self, env):
        net = build_network(env)
        with pytest.raises(ValueError, match="negative window start"):
            net.mean_bandwidth("a", "b", -0.5, 10.0)
        with pytest.raises(ValueError, match="precedes start"):
            net.mean_bandwidth("a", "b", 10.0, 5.0)
        assert net.mean_bandwidth("a", "b", 5.0, 5.0) >= 0  # empty window ok


class TestActorRegistry:
    def test_register_and_lookup(self, env):
        net = build_network(env)
        net.register_actor("op1", "a")
        assert net.actor_host("op1") == "a"

    def test_unknown_actor_raises(self, env):
        net = build_network(env)
        with pytest.raises(KeyError):
            net.actor_host("nobody")

    def test_register_unknown_host_rejected(self, env):
        net = build_network(env)
        with pytest.raises(ValueError):
            net.register_actor("op1", "ghost")

    def test_move_actor_drains_old_mailbox(self, env):
        net = build_network(env)
        net.register_actor("op1", "a")
        message = data_message("x", "op1")
        net.hosts["a"].mailbox("op1").deliver(message)
        env.run()
        pending = net.move_actor("op1", "b")
        assert pending == [message]
        assert net.actor_host("op1") == "b"

    def test_move_to_same_host_is_noop(self, env):
        net = build_network(env)
        net.register_actor("op1", "a")
        assert net.move_actor("op1", "a") == []

    def test_actor_epoch_moves_only_when_a_location_changes(self, env):
        net = build_network(env)
        epoch = net.actor_epoch
        net.register_actor("op1", "a")  # new actor: no prior location
        net.register_actor("op1", "a")  # same host again
        net.move_actor("op1", "a")
        assert net.actor_epoch == epoch
        net.move_actor("op1", "b")
        assert net.actor_epoch == epoch + 1
        net.register_actor("op1", "c")  # re-homed by registration
        assert net.actor_epoch == epoch + 2


class TestTransfers:
    def test_local_delivery_instant(self, env):
        net = build_network(env)
        net.register_actor("s", "a")
        net.register_actor("d", "a")
        message = data_message("s", "d")
        net.send(message)
        env.run()
        assert message.delivered_at == 0.0
        assert net.stats_for(None).local_deliveries == 1
        assert net.stats_for(None).transfers == 0

    def test_remote_transfer_time(self, env):
        net = build_network(env, rate=1000.0, startup=0.5)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        message = data_message("s", "d", size=1000 - 256)  # wire = 1000
        net.send(message)
        env.run()
        assert message.delivered_at == pytest.approx(1.5)

    def test_nic_serializes_two_senders_to_one_receiver(self, env):
        net = build_network(env, rate=1000.0)
        for actor, host in (("s1", "a"), ("s2", "b"), ("d", "c")):
            net.register_actor(actor, host)
        m1 = data_message("s1", "d", size=1000 - 256)
        m2 = data_message("s2", "d", size=1000 - 256)
        net.send(m1)
        net.send(m2)
        env.run()
        # c's single NIC receives them one at a time: 1s then 2s.
        assert sorted([m1.delivered_at, m2.delivered_at]) == [
            pytest.approx(1.0),
            pytest.approx(2.0),
        ]

    def test_sender_nic_also_serializes(self, env):
        net = build_network(env, rate=1000.0)
        for actor, host in (("s", "a"), ("d1", "b"), ("d2", "c")):
            net.register_actor(actor, host)
        m1 = data_message("s", "d1", size=1000 - 256)
        m2 = data_message("s", "d2", size=1000 - 256)
        net.send(m1)
        net.send(m2)
        env.run()
        assert sorted([m1.delivered_at, m2.delivered_at]) == [
            pytest.approx(1.0),
            pytest.approx(2.0),
        ]

    def test_priority_message_overtakes_queued_data(self, env):
        net = build_network(env, rate=1000.0)
        for actor, host in (("s1", "a"), ("s2", "b"), ("ctl", "b"), ("d", "c")):
            net.register_actor(actor, host)
        bulk1 = data_message("s1", "d", size=1000 - 256)
        bulk2 = data_message("s2", "d", size=1000 - 256)
        barrier = Message(MessageKind.BARRIER, "ctl", "d", 0)
        net.send(bulk1)
        net.send(bulk2)
        net.send(barrier)
        env.run()
        # The barrier (wire 256B) overtakes the queued second bulk message.
        assert barrier.delivered_at < bulk2.delivered_at

    def test_no_deadlock_on_bidirectional_traffic(self, env):
        net = build_network(env, rate=1000.0)
        net.register_actor("x", "a")
        net.register_actor("y", "b")
        messages = []
        for i in range(10):
            src, dst = ("x", "y") if i % 2 == 0 else ("y", "x")
            message = data_message(src, dst, size=500)
            messages.append(message)
            net.send(message)
        env.run()
        assert all(m.delivered_at == m.delivered_at for m in messages)
        assert net.stats_for(None).transfers == 10

    def test_forwarding_after_actor_move(self, env):
        net = build_network(env, rate=1000.0)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        message = data_message("s", "d", size=1000 - 256)

        def mover(env):
            yield env.timeout(0.5)  # mid-flight
            net.move_actor("d", "c")

        net.send(message)
        env.process(mover(env))
        env.run()
        assert net.stats_for(None).forwarded_messages == 1
        # Delivered at c's mailbox, not b's.
        assert len(net.hosts["c"].mailbox("d")) == 1
        assert len(net.hosts["b"].mailbox("d")) == 0

    def test_observers_see_transfers(self, env):
        net = build_network(env, rate=1000.0, startup=0.5)
        seen = []
        net.observers.append(seen.append)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        net.send(data_message("s", "d", size=1000 - 256))
        env.run()
        assert len(seen) == 1
        obs = seen[0]
        assert obs.src_host == "a" and obs.dst_host == "b"
        assert obs.wire_bytes == 1000
        assert obs.data_seconds == pytest.approx(1.0)
        assert obs.measured_bandwidth == pytest.approx(1000.0)

    def test_fluid_counter_splits_from_des(self, env):
        net = build_network(env, rate=1000.0)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        net.send(data_message("s", "d"))
        env.run()
        assert net.stats_for(None).transfers == 1
        assert net.stats_for(None).des_transfers == 0

    def test_forced_slow_path_counts_des(self, env):
        net = build_network(env, rate=1000.0)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        message = data_message("s", "d", size=1000 - 256)
        with full_des():
            net.send(message)
            env.run()
        assert message.delivered_at == pytest.approx(1.0)
        assert net.stats_for(None).transfers == 1
        assert net.stats_for(None).des_transfers == 1

    def test_post_delivers_without_done_event(self, env):
        net = build_network(env, rate=1000.0)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        message = data_message("s", "d", size=1000 - 256)
        assert net.post(message) is None
        env.run()
        assert message.delivered_at == pytest.approx(1.0)
        assert len(net.hosts["b"].mailbox("d")) == 1

    def test_post_and_send_same_timing(self, env):
        timings = {}
        for use_post in (False, True):
            fresh_env = type(env)()
            net = build_network(fresh_env, rate=1000.0)
            net.register_actor("s", "a")
            net.register_actor("d", "b")
            message = data_message("s", "d", size=500)
            (net.post if use_post else net.send)(message)
            fresh_env.run()
            timings[use_post] = message.delivered_at
        assert timings[True] == timings[False]

    def test_post_falls_back_to_send_when_slow(self, env):
        net = build_network(env, rate=1000.0)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        message = data_message("s", "d")
        with full_des():
            net.post(message)
            env.run()
        assert message.delivered_at is not None
        assert net.stats_for(None).des_transfers == 1

    def test_piggyback_hooks_called(self, env):
        net = build_network(env)
        calls = {"source": 0, "sink": 0}

        def source(src, dst):
            calls["source"] += 1
            return {"bytes": 24, "entries": []}

        def sink(dst, piggyback, query_id):
            calls["sink"] += 1
            assert query_id is None

        net.piggyback_source = source
        net.piggyback_sink = sink
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        net.send(data_message("s", "d"))
        env.run()
        assert calls == {"source": 1, "sink": 1}


class TestTransferObservation:
    def observation(self, **overrides):
        fields = dict(
            src_host="a",
            dst_host="b",
            wire_bytes=2000.0,
            data_seconds=2.0,
            started=1.0,
            finished=3.5,
            query_id=None,
        )
        fields.update(overrides)
        return TransferObservation(**fields)

    def test_fields_cannot_be_assigned(self):
        obs = self.observation()
        with pytest.raises(AttributeError):
            obs.wire_bytes = 1.0
        with pytest.raises(AttributeError):
            obs.extra = 1.0

    def test_compares_by_value(self):
        assert self.observation() == self.observation()
        assert hash(self.observation()) == hash(self.observation())
        assert self.observation() != self.observation(query_id="q1")

    def test_query_id_defaults_to_none(self):
        obs = TransferObservation("a", "b", 10.0, 1.0, 0.0, 1.5)
        assert obs.query_id is None
        assert obs == self.observation(
            wire_bytes=10.0, data_seconds=1.0, started=0.0, finished=1.5
        )

    def test_measured_bandwidth(self):
        assert self.observation().measured_bandwidth == 1000.0

    @pytest.mark.parametrize("data_seconds", [0.0, -0.25])
    def test_measured_bandwidth_infinite_without_data_time(self, data_seconds):
        obs = self.observation(data_seconds=data_seconds)
        assert obs.measured_bandwidth == float("inf")
