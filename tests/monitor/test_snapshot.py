"""MonitoringSystem.snapshot: one frozen view equal to per-pair estimates.

The snapshot reads the viewer's cache straight into a
:class:`~repro.monitor.system.FrozenView`.  For every ordered pair the
view must answer exactly ``estimate(...).bandwidth``, and a traced
snapshot must record the same ``monitor.estimate`` events and counters,
in the same order, as one ``estimate`` call per canonical pair.
``estimate`` itself must follow the rule written out in :func:`rule`
over the cache's public lookup and ``T_THRES``.

The monitor hands a viewer its previous view again while the viewer's
cache version and the host tuple are unchanged.
:func:`test_memoized_views_equal_fresh_reads` drives every cache writer
against a monitor that rebuilds every view, and requires equal views,
records and counters.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.cache import CacheEntry
from repro.monitor.piggyback import decode_piggyback
from repro.monitor.system import (
    DEFAULT_ESTIMATE,
    FrozenView,
    T_THRES,
    MonitoringConfig,
    MonitoringSystem,
    frozen_estimator,
)
from repro.net.host import Host
from repro.net.network import Network
from repro.obs import Tracer
from repro.sim import Environment
from repro.traces.study import pair_key

NAMES = ("client", "h0", "h1", "h2", "x")
NOW = 1000.0


def canonical_pairs(hosts):
    ordered = sorted(hosts)
    return [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :]]


def reference(monitoring, viewer, hosts, now):
    """The per-pair view: one ``estimate`` call per canonical pair."""
    return {
        (a, b): monitoring.estimate(viewer, a, b, now).bandwidth
        for a, b in canonical_pairs(hosts)
    }


def rule(monitoring, viewer, a, b, now):
    """``(bandwidth, age, quality)`` by the estimate rule, from the
    cache's public lookup: an entry at most ``T_THRES`` old is fresh, an
    older one stale, no entry the default; a forecast, when there is
    one, replaces the entry's value."""
    entry = monitoring.cache_for(viewer).lookup_any(a, b)
    if entry is None:
        return DEFAULT_ESTIMATE, math.inf, "default"
    forecast = monitoring.forecast_for(viewer, a, b)
    value = forecast if forecast is not None else entry.bandwidth
    age = entry.age(now)
    return value, age, "fresh" if age <= T_THRES else "stale"


def read_back(view, hosts):
    """The view's answer on every canonical pair of ``hosts``."""
    return {(a, b): view(a, b) for a, b in canonical_pairs(hosts)}


@st.composite
def monitored(draw):
    """A monitor whose viewer holds fresh, stale and missing entries."""
    hosts = draw(
        st.lists(st.sampled_from(NAMES), min_size=2, max_size=5, unique=True)
    )
    viewer = draw(st.sampled_from(hosts))
    forecast = draw(st.sampled_from((None, "adaptive")))
    tracer = Tracer()
    env = Environment()
    network = Network(env)
    for name in NAMES:
        network.add_host(Host(env, name))
    monitoring = MonitoringSystem(
        network,
        MonitoringConfig(forecast=forecast),
        tracer=tracer,
    )
    cache = monitoring.cache_for(viewer)
    ordered = sorted(hosts)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            kind = draw(st.sampled_from(("missing", "fresh", "stale")))
            if kind == "missing":
                continue
            # A short measurement history feeds the pair's forecaster.
            ages = draw(
                st.lists(
                    st.floats(0.0, 3 * T_THRES), min_size=1, max_size=4
                ).map(lambda xs: sorted(xs, reverse=True))
            )
            if kind == "fresh":
                ages[-1] = draw(st.sampled_from((0.0, T_THRES / 2, T_THRES)))
                ages = [max(age, ages[-1]) for age in ages]
            else:
                ages = [T_THRES + 1.0 + age for age in ages]
            for age in ages:
                rate = draw(st.floats(1e3, 1e7))
                # Either endpoint's orientation reaches the same entry.
                x, y = (a, b) if draw(st.booleans()) else (b, a)
                cache.update(x, y, rate, NOW - age)
    return monitoring, tracer, viewer, hosts


@settings(max_examples=80, deadline=None)
@given(case=monitored())
def test_view_matches_per_pair_estimates(case):
    monitoring, tracer, viewer, hosts = case
    start = len(tracer.events)
    counters = dict(tracer.counters)
    view = monitoring.snapshot(viewer, hosts, NOW)
    snap_events = tracer.events[start:]
    snap_counts = {
        k: v - counters.get(k, 0) for k, v in tracer.counters.items()
    }

    start = len(tracer.events)
    counters = dict(tracer.counters)
    want = reference(monitoring, viewer, hosts, NOW)
    ref_events = tracer.events[start:]
    ref_counts = {
        k: v - counters.get(k, 0) for k, v in tracer.counters.items()
    }

    assert isinstance(view, FrozenView)
    assert read_back(view, hosts) == want
    for a, b in canonical_pairs(hosts):
        estimate = monitoring.estimate(viewer, a, b, NOW)
        got = (estimate.bandwidth, estimate.age, estimate.quality)
        assert got == rule(monitoring, viewer, a, b, NOW)
    for a in hosts:
        for b in hosts:
            if a == b:
                assert view(a, b) == math.inf
            else:
                assert view(a, b) == monitoring.estimate(viewer, a, b, NOW).bandwidth
    assert snap_events == ref_events
    assert {k: v for k, v in snap_counts.items() if v} == {
        k: v for k, v in ref_counts.items() if v
    }


def test_untraced_snapshot_equals_traced_one():
    env = Environment()
    network = Network(env)
    for name in NAMES:
        network.add_host(Host(env, name))
    quiet = MonitoringSystem(network, MonitoringConfig(forecast="adaptive"))
    traced = MonitoringSystem(
        network, MonitoringConfig(forecast="adaptive"), tracer=Tracer()
    )
    for monitoring in (quiet, traced):
        cache = monitoring.cache_for("client")
        cache.update("h0", "client", 5e4, 10.0)
        cache.update("client", "h0", 7e4, 20.0)
        cache.update("h1", "h2", 3e4, 0.0)
    views = [m.snapshot("client", NAMES, 45.0) for m in (quiet, traced)]
    quiet_pairs, traced_pairs = (read_back(view, NAMES) for view in views)
    assert quiet_pairs == traced_pairs
    assert quiet_pairs == reference(quiet, "client", NAMES, 45.0)


class TestFrozenView:
    def test_answers_both_directions_and_the_diagonal(self):
        inf = math.inf
        view = FrozenView(
            ("a", "b", "c"),
            {"a": 0, "b": 1, "c": 2},
            [[inf, 5.0, 7.0], [6.0, inf, 8.0], [7.0, 8.0, inf]],
        )
        assert view("a", "b") == 5.0
        assert view("b", "a") == 6.0
        assert view("c", "a") == 7.0
        assert view("b", "b") == view("zz", "zz") == math.inf
        with pytest.raises(KeyError):
            view("b", "zz")

    def test_frozen_estimator_reads_canonical_pairs_once(self):
        calls = []

        def read(a, b):
            calls.append((a, b))
            return 10.0 * len(calls)

        view = frozen_estimator(["c", "a", "b"], read)
        assert isinstance(view, FrozenView)
        assert calls == [("a", "b"), ("a", "c"), ("b", "c")]
        assert view("c", "b") == 30.0
        assert view("a", "c") == 20.0

    def test_frozen_estimator_rows_are_symmetric_with_an_inf_diagonal(self):
        view = frozen_estimator(["b", "c", "a"], lambda a, b: float(ord(a) * ord(b)))
        assert view.hosts == ("a", "b", "c")
        assert view.index == {"a": 0, "b": 1, "c": 2}
        for i, a in enumerate(view.hosts):
            assert view.rows[i][i] == math.inf
            for j, b in enumerate(view.hosts):
                assert view.rows[i][j] == view.rows[j][i] == view(a, b)


# -- the per-viewer snapshot memo ---------------------------------------------

POOL = ("client", "h0", "h1", "h2", "h3", "h4")


def fresh_view(monitoring, viewer, hosts, now):
    """The view a snapshot without a memo builds: every pair read now."""
    cache = monitoring.cache_for(viewer)
    return frozen_estimator(
        hosts, lambda a, b: monitoring._reading(viewer, cache, a, b, now)[0]
    )


def reading(draw, hosts):
    """A measurement of a drawn pair: ``(a, b, bandwidth, age)``."""
    a, b = draw(st.lists(st.sampled_from(hosts), min_size=2, max_size=2, unique=True))
    return a, b, draw(st.floats(1e3, 1e7)), draw(st.floats(0.0, 90.0))


@st.composite
def histories(draw):
    """A forecast mode and a run of cache writes, payload replays, host
    joins, clock steps and snapshots by two viewers."""
    forecast = draw(st.sampled_from((None, "adaptive", "median")))
    kinds = ("update", "merge", "decode", "redecode", "host", "advance", "snapshot")
    ops = []
    hosts = list(POOL[:3])
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(kinds))
        viewer = draw(st.sampled_from(("client", "h0")))
        if kind in ("update", "merge"):
            arg = reading(draw, hosts)
        elif kind == "decode":
            # Possibly empty, possibly all older than the cache: a
            # payload that merges nothing.
            arg = [reading(draw, hosts) for _ in range(draw(st.integers(0, 3)))]
        elif kind == "redecode":
            arg = draw(st.integers(0, 1000))
        elif kind == "host":
            if len(hosts) == len(POOL):
                continue
            hosts.append(POOL[len(hosts)])
            arg = hosts[-1]
        elif kind == "advance":
            arg = draw(st.floats(0.0, 60.0))
        else:
            arg = draw(
                st.none()
                | st.lists(st.sampled_from(hosts), min_size=2, unique=True)
            )
        ops.append((kind, viewer, arg))
    return forecast, ops


def monitor_on(forecast, tracer):
    env = Environment()
    network = Network(env)
    for name in POOL[:3]:
        network.add_host(Host(env, name))
    return MonitoringSystem(network, MonitoringConfig(forecast=forecast), tracer=tracer)


@settings(max_examples=150, deadline=None)
@given(history=histories())
def test_memoized_views_equal_fresh_reads(history):
    """Interleave every cache writer (``update``, ``merge_entry``,
    ``decode_piggyback`` with payloads that merge nothing and replayed
    payloads), host joins and clock steps with snapshots.  Each
    snapshot must equal a view read fresh from the same state, on an
    untraced monitor and on a traced one; the traced one must record
    what a monitor that rebuilds every view records."""
    forecast, ops = history
    traced_tracer, fresh_tracer = Tracer(), Tracer()
    quiet = monitor_on(forecast, None)
    traced = monitor_on(forecast, traced_tracer)
    fresh = monitor_on(forecast, fresh_tracer)
    systems = (quiet, traced, fresh)
    now = 100.0
    payloads = []
    for kind, viewer, arg in ops:
        caches = [monitoring.cache_for(viewer) for monitoring in systems]
        if kind == "update":
            a, b, bandwidth, age = arg
            for cache in caches:
                cache.update(a, b, bandwidth, now - age)
        elif kind == "merge":
            a, b, bandwidth, age = arg
            entry = CacheEntry(pair_key(a, b), bandwidth, now - age)
            for cache in caches:
                cache.merge_entry(entry)
        elif kind == "decode" or (kind == "redecode" and payloads):
            if kind == "decode":
                entries = [
                    CacheEntry(pair_key(a, b), bandwidth, now - age)
                    for a, b, bandwidth, age in arg
                ]
                payloads.append({"bytes": 0, "entries": entries})
                payload = payloads[-1]
            else:
                payload = payloads[arg % len(payloads)]
            for cache in caches:
                decode_piggyback(cache, payload)
        elif kind == "host":
            for monitoring in systems:
                monitoring.network.add_host(Host(monitoring.network.env, arg))
        elif kind == "advance":
            now += arg
        elif kind == "snapshot":
            hosts = tuple(quiet.network.hosts) if arg is None else arg
            want = fresh_view(fresh, viewer, hosts, now)
            for monitoring in (quiet, traced):
                view = monitoring.snapshot(viewer, hosts, now)
                assert isinstance(view, FrozenView)
                assert view.hosts == want.hosts
                assert view.rows == want.rows
                for a in hosts:
                    for b in hosts:
                        assert view(a, b) == want(a, b)
    assert traced_tracer.events == fresh_tracer.events
    assert traced_tracer.counters == fresh_tracer.counters


def test_unchanged_version_returns_the_same_view():
    monitoring = monitor_on("adaptive", Tracer())
    cache = monitoring.cache_for("client")
    cache.update("client", "h0", 5e4, 10.0)
    first = monitoring.snapshot("client", ("h0", "client", "h1"), 20.0)
    # Same version and hosts (in any order), a later clock: same view.
    assert monitoring.snapshot("client", ("h1", "h0", "client"), 90.0) is first
    # A write that loses to the cached entry bumps nothing.
    assert not cache.update("client", "h0", 7e4, 5.0)
    assert monitoring.snapshot("client", ("client", "h0", "h1"), 90.0) is first
    # A new measurement, or another host tuple, builds a new view.
    cache.update("client", "h0", 7e4, 30.0)
    second = monitoring.snapshot("client", ("client", "h0", "h1"), 90.0)
    assert second is not first and second("h0", "client") != first("h0", "client")
    assert monitoring.snapshot("client", ("client", "h0"), 90.0) is not second
    # Another viewer keeps a view of its own.
    assert monitoring.snapshot("h0", ("client", "h0"), 90.0) is not second
