"""The monitoring system: passive observation, caches, piggyback, probes.

One :class:`MonitoringSystem` instance serves a whole simulation.  It owns
one :class:`~repro.monitor.cache.BandwidthCache` per host and hooks into
the network's transfer observer and piggyback slots.  Placement algorithms
consult it through :meth:`estimate` (a host's local view) or
:meth:`snapshot` (a :class:`~repro.dataflow.cost.FrozenView` of every
pair, what planners read; this module re-exports ``FrozenView`` and
``frozen_estimator``) and drive active measurements through
:meth:`probe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.dataflow.cost import FrozenView, frozen_estimator
from repro.monitor.cache import BandwidthCache
from repro.monitor.forecast import AdaptiveForecaster, SlidingMedian
from repro.monitor.piggyback import (
    PIGGYBACK_BUDGET_BYTES,
    decode_piggyback,
    encode_piggyback,
    whole_cache_fits,
)
from repro.faults.plan import TransferAbandoned
from repro.net.message import Message, MessageKind
from repro.net.network import Network, TransferObservation
from repro.obs.events import (
    MONITOR_ESTIMATE,
    MONITOR_PASSIVE,
    MONITOR_PIGGYBACK,
    MONITOR_PROBE,
    MONITOR_PROBE_RESULT,
    MONITOR_PROBE_TIMEOUT,
)
from repro.obs.tracer import ensure_tracer

#: 16 KB, the paper's passive-monitoring threshold: a transfer at least
#: this large yields a bandwidth measurement at both endpoints.
S_THRES = 16 * 1024
#: 40 s, the paper's cache timeout: a measurement older than this is
#: read as "stale".
T_THRES = 40.0
#: Probe message size, bytes (>= ``S_THRES`` so probes are observed).
PROBE_SIZE = S_THRES
#: Estimate used when a pair has never been measured, bytes/second.
DEFAULT_ESTIMATE = 16 * 1024.0
#: Seconds a probe waits for its delivery before giving up.  Only
#: consulted when a fault plan is installed; unfaulted runs never time a
#: probe out.
PROBE_TIMEOUT = 60.0


@dataclass(frozen=True)
class MonitoringConfig:
    """Knobs of the monitoring model (paper defaults)."""

    #: Per-message piggyback budget, bytes (0 disables piggybacking).
    piggyback_budget: int = PIGGYBACK_BUDGET_BYTES
    #: Optional NWS-style forecasting of estimates: None (paper model —
    #: raw cached measurements), "adaptive" (best-of-bank) or "median"
    #: (sliding median of 8); see :mod:`repro.monitor.forecast`.
    forecast: Optional[str] = None


#: Forecaster factory per ``MonitoringConfig.forecast`` mode.
_FORECASTERS = {
    "adaptive": AdaptiveForecaster,
    "median": lambda: SlidingMedian(window=8),
}


@dataclass(frozen=True)
class Estimate:
    """A bandwidth estimate with provenance."""

    bandwidth: float
    #: Age of the underlying measurement in seconds (inf for defaults).
    age: float
    #: "fresh" (within ``T_THRES``), "stale" (older) or "default".
    quality: str


class MonitoringSystem:
    """Wires the paper's monitoring model onto a network."""

    def __init__(
        self,
        network: Network,
        config: Optional[MonitoringConfig] = None,
        tracer=None,
    ) -> None:
        self.network = network
        self.config = config or MonitoringConfig()
        self._tracer = ensure_tracer(tracer)
        #: Fault injector, set by the simulation builder when a fault
        #: plan is active; None keeps probes on the unfaulted path.
        self.faults = None
        self.caches: dict[str, BandwidthCache] = {
            name: BandwidthCache() for name in network.hosts
        }
        #: (viewer host, pair) -> forecaster, when forecasting is on.
        self._forecasters: dict[tuple[str, tuple[str, str]], object] = {}
        if self.config.forecast is not None:
            if self.config.forecast not in _FORECASTERS:
                raise ValueError(f"unknown forecast mode {self.config.forecast!r}")
            for name, cache in self.caches.items():
                cache.on_new_value = self._feed_forecaster(name)
        #: viewer -> (its cache's version, view) of its last snapshot.
        self._views: dict[str, tuple[int, FrozenView]] = {}
        #: Whether every payload is a whole cache (``whole_cache_fits``),
        #: and the host count that was decided for.
        self._whole_cache = False
        self._whole_hosts = -1
        network.observers.append(self._observe)
        if self.config.piggyback_budget > 0:
            network.piggyback_source = self._piggyback_source
            network.piggyback_sink = self._piggyback_sink

    def cache_for(self, host: str) -> BandwidthCache:
        """The measurement cache of ``host`` (created lazily for new hosts)."""
        cache = self.caches.get(host)
        if cache is None:
            if host not in self.network.hosts:
                raise KeyError(f"unknown host {host!r}")
            cache = BandwidthCache()
            if self.config.forecast is not None:
                cache.on_new_value = self._feed_forecaster(host)
            self.caches[host] = cache
        return cache

    # -- forecasting --------------------------------------------------------
    def _feed_forecaster(self, viewer: str):
        def feed(pair: tuple[str, str], bandwidth: float, measured_at: float):
            key = (viewer, pair)
            forecaster = self._forecasters.get(key)
            if forecaster is None:
                forecaster = _FORECASTERS[self.config.forecast]()
                self._forecasters[key] = forecaster
            if bandwidth > 0:
                forecaster.update(bandwidth)

        return feed

    def forecast_for(self, viewer: str, a: str, b: str) -> Optional[float]:
        """The viewer's forecast for a pair (None without data/forecasting)."""
        if a == b or self.config.forecast is None:
            return None
        pair = (a, b) if a < b else (b, a)
        forecaster = self._forecasters.get((viewer, pair))
        if forecaster is None:
            return None
        return forecaster.predict()

    # -- passive path -----------------------------------------------------
    def _observe(self, obs: TransferObservation) -> None:
        if obs.wire_bytes < S_THRES:
            return
        now = obs.finished
        bandwidth = obs.measured_bandwidth
        # Both endpoints learn the measurement (paper feature 1).
        self.cache_for(obs.src_host).update(obs.src_host, obs.dst_host, bandwidth, now)
        self.cache_for(obs.dst_host).update(obs.src_host, obs.dst_host, bandwidth, now)
        self.network.stats_for(obs.query_id).passive_measurements += 1
        if self._tracer.enabled:
            fields = {"a": obs.src_host, "b": obs.dst_host, "bandwidth": bandwidth}
            if obs.query_id is not None:
                fields["query_id"] = obs.query_id
            self._tracer.emit(MONITOR_PASSIVE, now, fields)

    def _piggyback_source(self, src: str, dst: str) -> Optional[dict]:
        # Decided on the first message and again only if a host joined
        # since.  The simulation builders add every host before the first
        # message, so no run sends an insertion-order payload before its
        # network grows past the budget.
        budget = self.config.piggyback_budget
        if len(self.network.hosts) != self._whole_hosts:
            self._whole_hosts = len(self.network.hosts)
            self._whole_cache = whole_cache_fits(self._whole_hosts, budget)
        return encode_piggyback(self.cache_for(src), budget, self._whole_cache)

    def _piggyback_sink(
        self, dst: str, piggyback: dict, query_id: Optional[str] = None
    ) -> None:
        merged = decode_piggyback(self.cache_for(dst), piggyback)
        self.network.stats_for(query_id).piggyback_entries_merged += merged
        if self._tracer.enabled:
            fields = {"host": dst, "merged": merged}
            if query_id is not None:
                fields["query_id"] = query_id
            self._tracer.emit(MONITOR_PIGGYBACK, self.network.env.now, fields)

    # -- queries ------------------------------------------------------------
    def _reading(
        self, viewer: str, cache: BandwidthCache, a: str, b: str, now: float
    ) -> tuple[float, str, float]:
        """``viewer``'s ``(bandwidth, quality, age)`` for a pair ``a != b``.

        The bandwidth is the pair's forecast, else the cached
        measurement, else ``DEFAULT_ESTIMATE``; the quality is "fresh"
        within ``T_THRES``, "stale" past it, "default" with no entry (age
        ``inf``).  A traced run records one ``monitor.estimate`` per
        reading.
        """
        entry = cache.lookup_any(a, b)
        if entry is None:
            value, quality, age = DEFAULT_ESTIMATE, "default", float("inf")
        else:
            age = entry.age(now)
            quality = "stale" if age > T_THRES else "fresh"
            forecast = self.forecast_for(viewer, a, b)
            value = entry.bandwidth if forecast is None else forecast
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                MONITOR_ESTIMATE,
                now,
                {
                    "viewer": viewer,
                    "a": a,
                    "b": b,
                    "quality": quality,
                    "age": None if entry is None else age,
                },
            )
            tracer.incr("monitor.estimate." + quality)
        return value, quality, age

    def estimate(self, viewer: str, a: str, b: str, now: float) -> Estimate:
        """``viewer``'s best estimate of the bandwidth between ``a`` and ``b``."""
        if a == b:
            return Estimate(float("inf"), 0.0, "fresh")
        value, quality, age = self._reading(viewer, self.cache_for(viewer), a, b, now)
        return Estimate(value, age, quality)

    def snapshot(
        self, viewer: str, hosts: Iterable[str], now: float
    ) -> FrozenView:
        """``viewer``'s view of every pair of ``hosts``, frozen at ``now``.

        Each canonical pair is read once, in sorted host order, by the
        same rule as :meth:`estimate` (so a traced run records one
        ``monitor.estimate`` per pair per snapshot), without building an
        :class:`Estimate` per pair.

        A pair's bandwidth depends on the viewer's cache entry and
        forecaster, never on ``now`` (only the quality and age do), and
        every cache write and forecaster update bumps the cache's
        ``_version``.  So while that version and the host tuple are
        unchanged, the viewer's previous view is returned again; a
        traced run still records each pair's reading.
        """
        cache = self.cache_for(viewer)
        ordered = tuple(sorted(hosts))
        memo = self._views.get(viewer)
        if (
            memo is not None
            and memo[0] == cache._version
            and memo[1].hosts == ordered
        ):
            if self._tracer.enabled:
                for i, a in enumerate(ordered):
                    for b in ordered[i + 1 :]:
                        self._reading(viewer, cache, a, b, now)
            return memo[1]
        view = frozen_estimator(
            ordered, lambda a, b: self._reading(viewer, cache, a, b, now)[0]
        )
        self._views[viewer] = (cache._version, view)
        return view

    def seed_snapshot(self, t: float, window: float = 30.0) -> None:
        """Give every host a measurement of every link around time ``t``.

        Models the paper's one-shot algorithm "using information available
        at the beginning of computation": the participants arrive with a
        recent measurement of each link (e.g. from the application's own
        startup monitoring).  A measurement is a short-term average — a
        16 KB probe takes seconds to minutes on these paths — so the value
        is the trace mean over ``[t, t + window]``.
        """
        for link in self.network.links():
            bandwidth = link.trace.mean_rate(t, t + window)
            for cache in self.caches.values():
                cache.update(link.a, link.b, bandwidth, t)

    # -- active probing ----------------------------------------------------
    def probe(self, a: str, b: str, query_id: Optional[str] = None):
        """Process generator: actively measure the pair ``(a, b)``.

        ``query_id`` attributes the probe's traffic and counters to one
        workload query (the probe messages are stamped, so the network's
        per-query accounting and the trace tags follow automatically).

        Sends one ``PROBE_SIZE`` message from ``a`` to ``b``; it exceeds
        ``S_THRES``, so the passive path records it at both endpoints.
        Returns the measured bandwidth (bytes/s).

        With a fault plan installed, the probe is bounded by
        ``PROBE_TIMEOUT`` (a timed-out, blacked-out or abandoned probe
        counts as :attr:`~repro.obs.metrics.RunMetrics.probe_timeouts`),
        and the method returns None when the probe did not arrive —
        callers must then keep their last-known-good estimates instead
        of caching a guess.

        The ``_monitor@<host>`` endpoints are never registered: the
        message names both hosts, so it is delivered at ``b`` without a
        mailbox.  A probe leaves the actor registry alone.
        """
        if a == b:
            raise ValueError("cannot probe a host against itself")
        now = self.network.env.now
        if self.faults is not None and self.faults.probe_blackout(now):
            self.network.stats_for(query_id).probe_timeouts += 1
            if self._tracer.enabled:
                self._trace_probe_timeout(now, a, b, "blackout", query_id)
            yield self.network.env.timeout(PROBE_TIMEOUT)
            return None
        message = Message(
            kind=MessageKind.CONTROL,
            src_actor=f"_monitor@{a}",
            dst_actor=f"_monitor@{b}",
            size=PROBE_SIZE,
            payload={"probe": True},
            query_id=query_id,
        )
        row = self.network.stats_for(query_id)
        row.probes_sent += 1
        row.probe_bytes += message.wire_size
        if self._tracer.enabled:
            fields = {"a": a, "b": b, "bytes": message.wire_size}
            if query_id is not None:
                fields["query_id"] = query_id
            self._tracer.emit(MONITOR_PROBE, now, fields)
        delivery = self.network.send(message, src_host=a, dst_host=b)
        if self.faults is None:
            yield delivery
        else:
            arrived = yield from self._await_probe(delivery, a, b, query_id)
            if not arrived:
                return None
        entry = self.cache_for(a).lookup_any(a, b)
        if entry is None:
            return None if self.faults is not None else DEFAULT_ESTIMATE
        bandwidth = entry.bandwidth
        if self._tracer.enabled:
            fields = {"a": a, "b": b, "bandwidth": bandwidth, "samples": 1}
            if query_id is not None:
                fields["query_id"] = query_id
            self._tracer.emit(MONITOR_PROBE_RESULT, self.network.env.now, fields)
        return bandwidth

    def _await_probe(
        self,
        delivery,
        a: str,
        b: str,
        query_id: Optional[str] = None,
    ):
        """Wait for one probe delivery, bounded by ``PROBE_TIMEOUT``.

        Returns True if the probe arrived in time.  On timeout the
        in-flight transfer keeps retrying in the background (its late
        arrival changes nothing); on abandonment the failure is absorbed
        here.
        """
        env = self.network.env
        timeout = env.timeout(PROBE_TIMEOUT)
        try:
            yield env.any_of([delivery, timeout])
        except TransferAbandoned:
            self.network.stats_for(query_id).probe_timeouts += 1
            if self._tracer.enabled:
                self._trace_probe_timeout(env.now, a, b, "abandoned", query_id)
            return False
        if delivery.triggered:
            return True
        self.network.stats_for(query_id).probe_timeouts += 1
        if self._tracer.enabled:
            self._trace_probe_timeout(env.now, a, b, "timeout", query_id)
        delivery.defused = True
        return False

    def _trace_probe_timeout(
        self, now: float, a: str, b: str, reason: str, query_id: Optional[str]
    ) -> None:
        fields = {"a": a, "b": b, "reason": reason}
        if query_id is not None:
            fields["query_id"] = query_id
        self._tracer.emit(MONITOR_PROBE_TIMEOUT, now, fields)

