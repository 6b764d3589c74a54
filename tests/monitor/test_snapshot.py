"""MonitoringSystem.snapshot: one frozen view equal to per-pair estimates.

The snapshot reads the viewer's cache straight into a
:class:`~repro.monitor.system.FrozenView`.  For every ordered pair the
view must answer exactly ``estimate(...).bandwidth``, and a traced
snapshot must record the same ``monitor.estimate`` events and counters,
in the same order, as one ``estimate`` call per canonical pair.
``estimate`` itself must follow the rule written out in :func:`rule`
over the cache's public lookup and ``T_THRES``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        view = FrozenView({("a", "b"): 5.0, ("a", "c"): 7.0})
        assert view("a", "b") == view("b", "a") == 5.0
        assert view("c", "a") == 7.0
        assert view("zz", "zz") == math.inf
        with pytest.raises(KeyError):
            view("b", "c")

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
