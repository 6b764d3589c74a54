"""MonitoringSystem: passive path, estimates, seeding, probes."""

import pytest

from repro.monitor.forecast import SlidingMedian
from repro.monitor.system import (
    DEFAULT_ESTIMATE,
    T_THRES,
    MonitoringConfig,
    MonitoringSystem,
)
from repro.net.host import Host
from repro.net.link import Link
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.traces import BandwidthTrace, constant_trace


def build(env, rate=1000.0, config=None, hosts=("a", "b", "c")):
    net = Network(env)
    for name in hosts:
        net.add_host(Host(env, name))
    for i, x in enumerate(hosts):
        for y in hosts[i + 1 :]:
            net.add_link(Link(x, y, constant_trace(rate), startup_cost=0.0))
    monitoring = MonitoringSystem(net, config or MonitoringConfig())
    return net, monitoring


def send(net, src_host, dst_host, size):
    net.register_actor(f"src@{src_host}", src_host)
    net.register_actor(f"dst@{dst_host}", dst_host)
    message = Message(
        MessageKind.DATA, f"src@{src_host}", f"dst@{dst_host}", size
    )
    net.send(message, src_host=src_host, dst_host=dst_host)
    return message


class TestPassiveMonitoring:
    def test_large_message_measured_at_both_endpoints(self, env):
        net, monitoring = build(env, rate=1000.0)
        send(net, "a", "b", 32 * 1024)
        env.run()
        for viewer in ("a", "b"):
            estimate = monitoring.estimate(viewer, "a", "b", env.now)
            assert estimate.quality == "fresh"
            assert estimate.bandwidth == pytest.approx(1000.0)
        assert net.stats_for(None).passive_measurements == 1

    def test_small_message_not_measured(self, env):
        net, monitoring = build(env)
        send(net, "a", "b", 1024)  # below S_thres
        env.run()
        assert monitoring.estimate("a", "a", "b", env.now).quality == "default"
        assert net.stats_for(None).passive_measurements == 0

    def test_third_party_learns_via_piggyback(self, env):
        net, monitoring = build(env)
        send(net, "a", "b", 32 * 1024)  # a-b measured

        def later(env):
            yield env.timeout(100)
            send(net, "a", "c", 32 * 1024)  # carries a-b entry to c

        env.process(later(env))
        env.run()
        estimate = monitoring.estimate("c", "a", "b", env.now)
        assert estimate.quality in ("fresh", "stale")
        assert estimate.bandwidth == pytest.approx(1000.0)

    def test_piggyback_disabled_by_budget_zero(self, env):
        config = MonitoringConfig(piggyback_budget=0)
        net, monitoring = build(env, config=config)
        send(net, "a", "b", 32 * 1024)

        def later(env):
            yield env.timeout(10)
            send(net, "a", "c", 32 * 1024)

        env.process(later(env))
        env.run()
        assert monitoring.estimate("c", "a", "b", env.now).quality == "default"


class TestEstimates:
    def test_default_when_unknown(self, env):
        __, monitoring = build(env)
        estimate = monitoring.estimate("a", "b", "c", 0.0)
        assert estimate.quality == "default"
        assert estimate.bandwidth == DEFAULT_ESTIMATE

    def test_same_host_is_infinite(self, env):
        __, monitoring = build(env)
        assert monitoring.estimate("a", "b", "b", 0.0).bandwidth == float("inf")

    def test_stale_after_t_thres(self, env):
        net, monitoring = build(env)
        send(net, "a", "b", 32 * 1024)
        env.run()
        t = env.now + T_THRES + 1
        assert monitoring.estimate("a", "a", "b", t).quality == "stale"

    def test_unknown_host_raises(self, env):
        __, monitoring = build(env)
        with pytest.raises(KeyError):
            monitoring.cache_for("ghost")


class TestSeedSnapshot:
    def test_every_host_knows_every_link(self, env):
        net, monitoring = build(env, rate=777.0)
        monitoring.seed_snapshot(0.0)
        for viewer in ("a", "b", "c"):
            for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
                estimate = monitoring.estimate(viewer, x, y, 1.0)
                assert estimate.quality == "fresh"
                assert estimate.bandwidth == pytest.approx(777.0)

    def test_seed_uses_window_average(self, env):
        net = Network(env)
        for name in ("a", "b"):
            net.add_host(Host(env, name))
        trace = BandwidthTrace([0, 15, 30], [100, 300, 300])
        net.add_link(Link("a", "b", trace, startup_cost=0.0))
        monitoring = MonitoringSystem(net)
        monitoring.seed_snapshot(0.0, window=30.0)
        assert monitoring.estimate("a", "a", "b", 0.0).bandwidth == pytest.approx(
            200.0
        )


class TestProbe:
    def test_probe_measures_pair(self, env):
        net, monitoring = build(env, rate=2000.0)

        def prober(env):
            bandwidth = yield from monitoring.probe("a", "b")
            assert bandwidth == pytest.approx(2000.0)

        env.process(prober(env))
        env.run()
        assert net.stats_for(None).probes_sent == 1
        assert monitoring.estimate("a", "a", "b", env.now).quality == "fresh"
        assert monitoring.estimate("b", "a", "b", env.now).quality == "fresh"

    def test_probe_self_rejected(self, env):
        __, monitoring = build(env)
        with pytest.raises(ValueError):
            list(monitoring.probe("a", "a"))

    def test_probe_cleans_up_actor_endpoints(self, env):
        # Regression: probe used to leave its _monitor@<host> endpoints
        # registered, leaking one registry entry (and mailbox) per probe;
        # then it registered and dropped them, moving the registry epoch
        # although no actor moved.
        net, monitoring = build(env, rate=2000.0)
        before = dict(net.actor_hosts)
        epoch = net.actor_epoch

        def prober(env):
            yield from monitoring.probe("a", "b")
            yield from monitoring.probe("b", "c")

        env.process(prober(env))
        env.run()
        assert net.actor_hosts == before
        assert net.actor_epoch == epoch
        for host in net.hosts.values():
            assert not any(
                name.startswith("_monitor@") for name in host._mailboxes
            )

    def test_probe_feeds_each_forecaster_once(self, env, monkeypatch):
        # One probe is one measurement: each endpoint's forecaster for
        # the pair sees it exactly once.
        net, monitoring = build(env, config=MonitoringConfig(forecast="median"))
        fed = []
        update = SlidingMedian.update

        def counting(predictor, value):
            fed.append(id(predictor))
            update(predictor, value)

        monkeypatch.setattr(SlidingMedian, "update", counting)
        env.process(monitoring.probe("a", "b"))
        env.run()
        forecasters = [
            monitoring._forecasters[viewer, ("a", "b")] for viewer in ("a", "b")
        ]
        assert sorted(fed) == sorted(id(f) for f in forecasters)
