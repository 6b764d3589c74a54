"""Compile a :class:`~repro.faults.plan.FaultPlan` into a live simulation.

The :class:`FaultInjector` is the single point the network, the
monitoring system and the engine consult when faults are enabled:

* :meth:`link_blocked` — can a transfer between two hosts start now?
* :meth:`drop_message` — is this transfer attempt lost?  (Per-pair
  seeded streams: the same plan loses the same attempts no matter how
  many other pairs transfer in between.)
* :meth:`host_down` / :meth:`probe_blackout` — window membership tests.

The injector also runs a *timeline* process that walks the plan's window
boundaries, emits ``fault.*`` trace events, and accumulates host
downtime at each recovery — the exact accumulation the trace replay in
:mod:`repro.obs.summary` repeats, so live metrics and replayed metrics
stay bit-identical.

When no plan is installed (the default) none of this machinery exists:
no extra calendar events, no RNG draws, no trace records.
"""

from __future__ import annotations

import zlib
from typing import Optional

import numpy as np

from repro.faults.plan import FaultPlan, RetryPolicy
from repro.obs.events import (
    FAULT_HOST_DOWN,
    FAULT_HOST_UP,
    FAULT_LINK_DOWN,
    FAULT_LINK_UP,
)
from repro.obs.tracer import ensure_tracer


def _pair_stream_seed(seed: int, a: str, b: str) -> tuple[int, int]:
    """Stable per-pair RNG seed (CRC32, not ``hash`` — no per-process salt)."""
    pair = (a, b) if a < b else (b, a)
    return (seed, zlib.crc32(f"{pair[0]}~{pair[1]}".encode()))


class FaultInjector:
    """One plan, compiled against one environment."""

    def __init__(self, plan: FaultPlan, env, tracer=None) -> None:
        self.plan = plan
        self.env = env
        self._tracer = ensure_tracer(tracer)
        self._outages: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for outage in plan.link_outages:
            self._outages.setdefault(outage.pair, []).append(
                (outage.start, outage.end)
            )
        for windows in self._outages.values():
            windows.sort()
        self._crashes: dict[str, list[tuple[float, float]]] = {}
        for crash in plan.host_crashes:
            self._crashes.setdefault(crash.host, []).append(
                (crash.start, crash.end)
            )
        for windows in self._crashes.values():
            windows.sort()
        self._blackouts: list[tuple[float, float]] = sorted(
            (b.start, b.end) for b in plan.probe_blackouts
        )
        self._loss: dict[tuple[str, str], float] = {
            loss.pair: loss.probability for loss in plan.link_loss
        }
        self._loss_rngs: dict[tuple[str, str], np.random.Generator] = {}
        #: Downtime accumulated at each recovery boundary the run reached,
        #: in boundary order (the trace replay repeats this accumulation).
        self.total_downtime: float = 0.0
        #: Per-host breakdown of :attr:`total_downtime`.
        self.host_downtime: dict[str, float] = {}

    @property
    def retry(self) -> RetryPolicy:
        """The retry/backoff policy transfers apply under this plan."""
        return self.plan.retry

    # -- queries ------------------------------------------------------------
    def host_down(self, host: str, t: float) -> bool:
        """True if ``host`` is inside one of its crash windows at ``t``."""
        for start, end in self._crashes.get(host, ()):
            if start <= t < end:
                return True
        return False

    def link_blocked(self, a: str, b: str, t: float) -> Optional[str]:
        """Why a transfer between ``a`` and ``b`` cannot start at ``t``.

        Returns ``"host-down"``, ``"outage"`` or None (transfer may start).
        """
        if self.host_down(a, t) or self.host_down(b, t):
            return "host-down"
        pair = (a, b) if a < b else (b, a)
        for start, end in self._outages.get(pair, ()):
            if start <= t < end:
                return "outage"
        return None

    def has_loss(self, a: str, b: str) -> bool:
        """True if the pair carries a seeded loss stream.

        The network no longer asks: every faulted transfer runs the
        same callback attempt chain, calling :meth:`drop_message` once
        per unblocked attempt.  Kept as a query for the benchmark's
        per-layer seam table.
        """
        pair = (a, b) if a < b else (b, a)
        return bool(self._loss.get(pair))

    def next_boundary(
        self,
        link: tuple[str, str],
        hosts,
        t0: float,
        t1: float,
    ) -> Optional[float]:
        """Earliest fault-window boundary strictly inside ``(t0, t1)``.

        ``link`` is a canonical host-pair key whose outage windows are
        scanned; ``hosts`` are host names whose crash windows are
        scanned.  Returns None when the interval contains no boundary.

        The network no longer asks: a transfer attempt is never
        interrupted mid-flight, so a boundary inside its window changes
        nothing.  Kept as a query for the benchmark's per-layer seam
        table.
        """
        best: Optional[float] = None
        for start, end in self._outages.get(link, ()):
            for t in (start, end):
                if t0 < t < t1 and (best is None or t < best):
                    best = t
        for host in hosts:
            for start, end in self._crashes.get(host, ()):
                for t in (start, end):
                    if t0 < t < t1 and (best is None or t < best):
                        best = t
        return best

    def drop_message(self, a: str, b: str) -> bool:
        """Draw from the pair's loss stream: is this attempt lost?"""
        pair = (a, b) if a < b else (b, a)
        probability = self._loss.get(pair)
        if not probability:
            return False
        rng = self._loss_rngs.get(pair)
        if rng is None:
            rng = np.random.default_rng(_pair_stream_seed(self.plan.seed, a, b))
            self._loss_rngs[pair] = rng
        return rng.random() < probability

    def probe_blackout(self, t: float) -> bool:
        """True if active probes are blacked out at ``t``."""
        for start, end in self._blackouts:
            if start <= t < end:
                return True
        return False

    # -- timeline -----------------------------------------------------------
    def start(self) -> None:
        """Spawn the timeline process (call once, at build time)."""
        if self._boundaries():
            self.env.process(self._timeline(), name="fault-timeline")

    def _boundaries(self) -> list[tuple[float, int, str, dict]]:
        """Window boundaries as ``(time, seq, event_type, payload)``."""
        entries: list[tuple[float, int, str, dict]] = []
        seq = 0
        for outage in self.plan.link_outages:
            a, b = outage.pair
            entries.append(
                (outage.start, seq, FAULT_LINK_DOWN, {"a": a, "b": b})
            )
            entries.append(
                (
                    outage.end,
                    seq + 1,
                    FAULT_LINK_UP,
                    {"a": a, "b": b, "outage": outage.end - outage.start},
                )
            )
            seq += 2
        for crash in self.plan.host_crashes:
            entries.append(
                (crash.start, seq, FAULT_HOST_DOWN, {"host": crash.host})
            )
            entries.append(
                (
                    crash.end,
                    seq + 1,
                    FAULT_HOST_UP,
                    {"host": crash.host, "downtime": crash.end - crash.start},
                )
            )
            seq += 2
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return entries

    def _timeline(self):
        """Walk the boundaries: trace fault events, account downtime.

        A window whose end lies beyond the simulation's lifetime never
        reaches its recovery boundary, so neither the live counter nor
        the replayed trace counts it — they cannot drift apart.
        """
        tracer = self._tracer
        for at, _, event_type, payload in self._boundaries():
            delay = at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if event_type == FAULT_HOST_UP:
                downtime = payload["downtime"]
                self.total_downtime += downtime
                host = payload["host"]
                self.host_downtime[host] = (
                    self.host_downtime.get(host, 0.0) + downtime
                )
            if tracer.enabled:
                tracer.emit(event_type, self.env.now, payload)
