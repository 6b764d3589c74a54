"""Bandwidth measurement cache semantics."""

import pytest

from repro.monitor.cache import BandwidthCache, CacheEntry
from repro.monitor.system import T_THRES, MonitoringSystem
from repro.net.host import Host
from repro.net.network import Network


def _monitor(env):
    net = Network(env)
    for name in ("a", "b"):
        net.add_host(Host(env, name))
    return MonitoringSystem(net)


class TestBandwidthCache:
    def test_update_and_fresh_lookup(self):
        cache = BandwidthCache()
        cache.update("a", "b", 1000.0, now=10.0)
        entry = cache.lookup_any("a", "b")
        assert entry is not None
        assert entry.bandwidth == 1000.0
        assert entry.age(30.0) == 20.0
        assert cache.lookup_any("a", "c") is None

    def test_lookup_symmetric(self):
        cache = BandwidthCache()
        cache.update("b", "a", 5.0, now=0.0)
        assert cache.lookup_any("a", "b").bandwidth == 5.0

    def test_timeout_makes_entry_stale(self, env):
        # The cache keeps a timed-out entry; the monitor reads it as stale.
        monitoring = _monitor(env)
        cache = monitoring.cache_for("a")
        cache.update("a", "b", 1000.0, now=0.0)
        estimate = monitoring.estimate("a", "a", "b", T_THRES + 1.0)
        assert estimate.quality == "stale"
        assert estimate.bandwidth == 1000.0
        assert cache.lookup_any("a", "b").bandwidth == 1000.0

    def test_is_fresh(self, env):
        monitoring = _monitor(env)
        monitoring.cache_for("a").update("a", "b", 1.0, now=0.0)
        assert monitoring.estimate("a", "a", "b", T_THRES).quality == "fresh"
        assert monitoring.estimate("a", "a", "b", T_THRES + 0.1).quality == "stale"

    def test_newest_measurement_wins(self):
        cache = BandwidthCache()
        cache.update("a", "b", 100.0, now=0.0)
        assert cache.update("a", "b", 200.0, now=5.0)
        assert cache.lookup_any("a", "b").bandwidth == 200.0

    def test_older_update_rejected(self):
        cache = BandwidthCache()
        cache.update("a", "b", 100.0, now=10.0)
        assert not cache.update("a", "b", 50.0, now=5.0)
        assert cache.lookup_any("a", "b").bandwidth == 100.0

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            BandwidthCache().update("a", "b", -1.0, now=0.0)

    def test_merge_entry_newest_wins(self):
        cache = BandwidthCache()
        cache.update("a", "b", 100.0, now=10.0)
        stale = CacheEntry(("a", "b"), 999.0, measured_at=5.0)
        assert not cache.merge_entry(stale)
        fresh = CacheEntry(("a", "b"), 300.0, measured_at=20.0)
        assert cache.merge_entry(fresh)
        assert cache.lookup_any("a", "b").bandwidth == 300.0

    def test_freshest_ordering_and_limit(self):
        cache = BandwidthCache()
        cache.update("a", "b", 1.0, now=1.0)
        cache.update("a", "c", 2.0, now=3.0)
        cache.update("b", "c", 3.0, now=2.0)
        top2 = cache.freshest(2)
        assert [e.pair for e in top2] == [("a", "c"), ("b", "c")]

    def test_iteration(self):
        cache = BandwidthCache()
        cache.update("a", "b", 1.0, now=0.0)
        assert [e.pair for e in cache] == [("a", "b")]
