"""The monitoring system: passive observation, caches, piggyback, probes.

One :class:`MonitoringSystem` instance serves a whole simulation.  It owns
one :class:`~repro.monitor.cache.BandwidthCache` per host and hooks into
the network's transfer observer and piggyback slots.  Placement algorithms
consult it through :meth:`estimate` (a host's local view) and drive active
measurements through :meth:`probe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.monitor.cache import BandwidthCache
from repro.monitor.forecast import (
    AdaptiveForecaster,
    Ewma,
    SlidingMean,
    SlidingMedian,
)
from repro.monitor.piggyback import (
    PIGGYBACK_BUDGET_BYTES,
    decode_piggyback,
    encode_piggyback,
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

#: 16 KB, the paper's passive-monitoring threshold and probe size.
DEFAULT_S_THRES = 16 * 1024


def frozen_estimator(
    hosts: Iterable[str], read: Callable[[str, str], float]
) -> Callable[[str, str], float]:
    """A pure estimator over one reading of every pair of ``hosts``.

    ``read`` is called once per canonical pair ``(a, b)`` with ``a < b``,
    in sorted host order; the returned estimator answers from those
    values in either direction (``inf`` for ``a == b``).  Planners
    evaluate thousands of candidate placements, so they plan from such
    a snapshot rather than from the live view.
    """
    ordered = sorted(hosts)
    matrix = {
        (a, b): read(a, b)
        for i, a in enumerate(ordered)
        for b in ordered[i + 1 :]
    }

    def estimate(a: str, b: str) -> float:
        if a == b:
            return float("inf")
        return matrix[(a, b) if a < b else (b, a)]

    return estimate


@dataclass(frozen=True)
class MonitoringConfig:
    """Knobs of the monitoring model (paper defaults)."""

    #: Passive measurement threshold, bytes.
    s_thres: float = DEFAULT_S_THRES
    #: Cache entry timeout, seconds.
    t_thres: float = 40.0
    #: Per-message piggyback budget, bytes (0 disables piggybacking).
    piggyback_budget: int = PIGGYBACK_BUDGET_BYTES
    #: Probe message size, bytes (>= s_thres so probes are observed).
    probe_size: float = DEFAULT_S_THRES
    #: Estimate used when a pair has never been measured, bytes/second.
    default_estimate: float = 16 * 1024.0
    #: EWMA weight for successive measurements of a pair (NWS-style
    #: forecasting; 1.0 keeps raw last measurements).
    smoothing: float = 1.0
    #: Optional NWS-style forecasting of estimates: None (paper model —
    #: raw cached measurements), or one of "adaptive", "ewma", "mean",
    #: "median" (see :mod:`repro.monitor.forecast`).
    forecast: Optional[str] = None
    #: Back-to-back messages per active probe; the samples are averaged.
    #: Multiple samples fight the winner's curse: the planner optimizes
    #: over many links at once, so single noisy samples systematically
    #: lure it toward over-estimated bandwidths.
    probe_samples: int = 1
    #: Seconds a probe sample waits for its delivery before giving up.
    #: Only consulted when a fault plan is installed; unfaulted runs
    #: never time a probe out.
    probe_timeout: float = 60.0


@dataclass
class MonitoringStats:
    """Counters for monitoring activity."""

    passive_measurements: int = 0
    piggyback_entries_merged: int = 0
    probes_sent: int = 0
    probe_bytes: float = 0.0
    #: Probe samples that produced no measurement (faulted runs only).
    probe_timeouts: int = 0


@dataclass(frozen=True)
class Estimate:
    """A bandwidth estimate with provenance."""

    bandwidth: float
    #: Age of the underlying measurement in seconds (inf for defaults).
    age: float
    #: "fresh" (within t_thres), "stale" (timed out) or "default".
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
        self.stats = MonitoringStats()
        #: Per-query monitoring counters, keyed by the query tag carried
        #: on probe messages / transfer observations (workload runs only).
        self.query_stats: dict[str, MonitoringStats] = {}
        self._tracer = ensure_tracer(tracer)
        #: Fault injector, set by the simulation builder when a fault
        #: plan is active; None keeps probes on the unfaulted path.
        self.faults = None
        self.caches: dict[str, BandwidthCache] = {
            name: BandwidthCache(self.config.t_thres, self.config.smoothing) for name in network.hosts
        }
        #: (viewer host, pair) -> forecaster, when forecasting is on.
        self._forecasters: dict[tuple[str, tuple[str, str]], object] = {}
        if self.config.forecast is not None:
            _validate_forecast_mode(self.config.forecast)
            for name, cache in self.caches.items():
                cache.on_new_value = self._feed_forecaster(name)
        network.observers.append(self._observe)
        if self.config.piggyback_budget > 0:
            network.piggyback_source = self._piggyback_source
            network.piggyback_sink = self._piggyback_sink

    def stats_for(self, query_id: str) -> MonitoringStats:
        """The per-query monitoring counters (created at zero)."""
        stats = self.query_stats.get(query_id)
        if stats is None:
            stats = self.query_stats[query_id] = MonitoringStats()
        return stats

    def cache_for(self, host: str) -> BandwidthCache:
        """The measurement cache of ``host`` (created lazily for new hosts)."""
        cache = self.caches.get(host)
        if cache is None:
            if host not in self.network.hosts:
                raise KeyError(f"unknown host {host!r}")
            cache = BandwidthCache(self.config.t_thres, self.config.smoothing)
            if self.config.forecast is not None:
                cache.on_new_value = self._feed_forecaster(host)
            self.caches[host] = cache
        return cache

    # -- forecasting --------------------------------------------------------
    def _new_forecaster(self):
        mode = self.config.forecast
        if mode == "adaptive":
            return AdaptiveForecaster()
        if mode == "ewma":
            return _SinglePredictorForecaster(Ewma(alpha=0.4))
        if mode == "mean":
            return _SinglePredictorForecaster(SlidingMean(window=8))
        if mode == "median":
            return _SinglePredictorForecaster(SlidingMedian(window=8))
        raise ValueError(f"unknown forecast mode {mode!r}")

    def _feed_forecaster(self, viewer: str):
        def feed(pair: tuple[str, str], bandwidth: float, measured_at: float):
            key = (viewer, pair)
            forecaster = self._forecasters.get(key)
            if forecaster is None:
                forecaster = self._new_forecaster()
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
        if obs.wire_bytes < self.config.s_thres:
            return
        now = obs.finished
        bandwidth = obs.measured_bandwidth
        # Both endpoints learn the measurement (paper feature 1).
        self.cache_for(obs.src_host).update(obs.src_host, obs.dst_host, bandwidth, now)
        self.cache_for(obs.dst_host).update(obs.src_host, obs.dst_host, bandwidth, now)
        self.stats.passive_measurements += 1
        if obs.query_id is not None:
            self.stats_for(obs.query_id).passive_measurements += 1
        if self._tracer.enabled:
            tag = {} if obs.query_id is None else {"query_id": obs.query_id}
            self._tracer.emit(
                MONITOR_PASSIVE,
                now,
                a=obs.src_host,
                b=obs.dst_host,
                bandwidth=bandwidth,
                **tag,
            )

    def _piggyback_source(self, src: str, dst: str) -> Optional[dict]:
        return encode_piggyback(self.cache_for(src), self.config.piggyback_budget)

    def _piggyback_sink(
        self, dst: str, piggyback: dict, query_id: Optional[str] = None
    ) -> None:
        merged = decode_piggyback(self.cache_for(dst), piggyback)
        self.stats.piggyback_entries_merged += merged
        if query_id is not None:
            self.stats_for(query_id).piggyback_entries_merged += merged
        if self._tracer.enabled:
            tag = {} if query_id is None else {"query_id": query_id}
            self._tracer.emit(
                MONITOR_PIGGYBACK,
                self.network.env.now,
                host=dst,
                merged=merged,
                **tag,
            )

    # -- queries ------------------------------------------------------------
    def estimate(self, viewer: str, a: str, b: str, now: float) -> Estimate:
        """``viewer``'s best estimate of the bandwidth between ``a`` and ``b``."""
        if a == b:
            return Estimate(float("inf"), 0.0, "fresh")
        cache = self.cache_for(viewer)
        forecast = self.forecast_for(viewer, a, b)
        fresh = cache.lookup(a, b, now)
        if fresh is not None:
            value = forecast if forecast is not None else fresh.bandwidth
            result = Estimate(value, fresh.age(now), "fresh")
        else:
            stale = cache.lookup_any(a, b)
            if stale is not None:
                value = forecast if forecast is not None else stale.bandwidth
                result = Estimate(value, stale.age(now), "stale")
            else:
                result = Estimate(
                    self.config.default_estimate, float("inf"), "default"
                )
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                MONITOR_ESTIMATE,
                now,
                viewer=viewer,
                a=a,
                b=b,
                quality=result.quality,
                age=result.age if result.age != float("inf") else None,
            )
            tracer.incr("monitor.estimate." + result.quality)
        return result

    def snapshot(
        self, viewer: str, hosts: Iterable[str], now: float
    ) -> Callable[[str, str], float]:
        """``viewer``'s view of every pair of ``hosts``, frozen at ``now``.

        Each canonical pair goes through :meth:`estimate` exactly once,
        so a traced run records one ``monitor.estimate`` per pair per
        plan; the returned estimator is a pure lookup over those values.
        """
        return frozen_estimator(
            hosts, lambda a, b: self.estimate(viewer, a, b, now).bandwidth
        )

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

        Sends ``probe_samples`` back-to-back messages of ``probe_size``
        bytes from ``a`` to ``b``; each exceeds ``s_thres`` so the passive
        path records it at both endpoints.  The samples are averaged and
        the average overwrites the cache entries at both endpoints —
        a single short sample is too noisy to hand to a planner that
        optimizes over every link at once.  Returns the averaged
        bandwidth (bytes/s).

        With a fault plan installed, each sample is bounded by
        ``config.probe_timeout`` (timed-out, blacked-out or abandoned
        samples count as :attr:`MonitoringStats.probe_timeouts`), and the
        method returns None when *no* sample survived — callers must then
        keep their last-known-good estimates instead of caching a guess.

        The throwaway ``_monitor@<host>`` endpoints are unregistered (and
        the target mailbox removed) on every exit path, so repeated
        probes never leak actor registrations.
        """
        if a == b:
            raise ValueError("cannot probe a host against itself")
        probe_actor = f"_monitor@{a}"
        target_actor = f"_monitor@{b}"
        # Monitor daemons are implicit: register throwaway actor endpoints.
        self.network.register_actor(probe_actor, a)
        self.network.register_actor(target_actor, b)
        tag = {} if query_id is None else {"query_id": query_id}
        try:
            samples: list[float] = []
            for _ in range(max(self.config.probe_samples, 1)):
                now = self.network.env.now
                if self.faults is not None and self.faults.probe_blackout(now):
                    self.stats.probe_timeouts += 1
                    if query_id is not None:
                        self.stats_for(query_id).probe_timeouts += 1
                    if self._tracer.enabled:
                        self._tracer.emit(
                            MONITOR_PROBE_TIMEOUT,
                            now,
                            a=a,
                            b=b,
                            reason="blackout",
                            **tag,
                        )
                    yield self.network.env.timeout(self.config.probe_timeout)
                    continue
                message = Message(
                    kind=MessageKind.CONTROL,
                    src_actor=probe_actor,
                    dst_actor=target_actor,
                    size=self.config.probe_size,
                    payload={"probe": True},
                    query_id=query_id,
                )
                self.stats.probes_sent += 1
                self.stats.probe_bytes += message.wire_size
                if query_id is not None:
                    query_stats = self.stats_for(query_id)
                    query_stats.probes_sent += 1
                    query_stats.probe_bytes += message.wire_size
                if self._tracer.enabled:
                    self._tracer.emit(
                        MONITOR_PROBE,
                        now,
                        a=a,
                        b=b,
                        bytes=message.wire_size,
                        **tag,
                    )
                delivery = self.network.send(message, src_host=a, dst_host=b)
                if self.faults is None:
                    yield delivery
                else:
                    arrived = yield from self._await_probe(
                        delivery, a, b, target_actor, query_id
                    )
                    if not arrived:
                        continue
                # Drain the probe from the target mailbox so it cannot pile up.
                self.network.hosts[b].remove_mailbox(target_actor)
                entry = self.cache_for(a).lookup_any(a, b)
                if entry is not None:
                    samples.append(entry.bandwidth)
            if not samples:
                if self.faults is not None:
                    return None
                return self.config.default_estimate
            bandwidth = sum(samples) / len(samples)
            now = self.network.env.now
            for host in (a, b):
                # Overwrite (not EWMA) with the multi-sample average.
                self.cache_for(host).force_set(a, b, bandwidth, now)
            if self._tracer.enabled:
                self._tracer.emit(
                    MONITOR_PROBE_RESULT,
                    now,
                    a=a,
                    b=b,
                    bandwidth=bandwidth,
                    samples=len(samples),
                    **tag,
                )
            return bandwidth
        finally:
            self.network.unregister_actor(probe_actor)
            self.network.unregister_actor(target_actor)
            self.network.hosts[b].remove_mailbox(target_actor)

    def _await_probe(
        self,
        delivery,
        a: str,
        b: str,
        target_actor: str,
        query_id: Optional[str] = None,
    ):
        """Wait for one probe delivery, bounded by ``config.probe_timeout``.

        Returns True if the probe arrived in time.  On timeout the
        in-flight transfer keeps retrying in the background (its late
        arrival is drained from the target mailbox); on abandonment the
        failure is absorbed here.
        """
        env = self.network.env
        tag = {} if query_id is None else {"query_id": query_id}
        timeout = env.timeout(self.config.probe_timeout)
        try:
            yield env.any_of([delivery, timeout])
        except TransferAbandoned:
            self.stats.probe_timeouts += 1
            if query_id is not None:
                self.stats_for(query_id).probe_timeouts += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    MONITOR_PROBE_TIMEOUT,
                    env.now,
                    a=a,
                    b=b,
                    reason="abandoned",
                    **tag,
                )
            return False
        if delivery.triggered:
            return True
        self.stats.probe_timeouts += 1
        if query_id is not None:
            self.stats_for(query_id).probe_timeouts += 1
        if self._tracer.enabled:
            self._tracer.emit(
                MONITOR_PROBE_TIMEOUT, env.now, a=a, b=b, reason="timeout", **tag
            )
        network = self.network
        delivery.defused = True
        delivery.callbacks.append(
            lambda _event: network.hosts[b].remove_mailbox(target_actor)
        )
        return False


def _validate_forecast_mode(mode: str) -> None:
    if mode not in ("adaptive", "ewma", "mean", "median"):
        raise ValueError(f"unknown forecast mode {mode!r}")


class _SinglePredictorForecaster:
    """Adapter giving a bare predictor the forecaster interface."""

    def __init__(self, predictor) -> None:
        self._predictor = predictor

    def update(self, value: float) -> None:
        self._predictor.update(value)

    def predict(self):
        return self._predictor.predict()
