"""Synthetic wide-area bandwidth trace generator.

The paper drove its simulator with real two-day traces of application-level
TCP bandwidth (16 KB round trips) between Internet host pairs in 1997.  We
cannot use those traces, so this module synthesises traces with the same
*variation structure*:

* a per-path **base rate** reflecting the path type (intra-US,
  transatlantic, to Brazil) at late-1990s levels,
* a **diurnal cycle** — paths are slower during the endpoints' business
  hours (the paper started every experiment at noon, the congested part of
  the day),
* **AR(1) multiplicative noise** producing the ubiquitous minute-scale
  jitter visible in the paper's Figure 2 (left),
* **congestion episodes** — Poisson-arriving, minutes-to-hour-long periods
  during which the path drops to a fraction of its base rate, producing the
  persistent shifts visible in Figure 2 (right).

The generator is calibrated so that the expected time between successive
bandwidth changes of at least 10 % is about two minutes, the statistic the
paper reports from its trace analysis (§4) and uses to pick
``T_thres = 40 s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.traces.trace import BandwidthTrace

#: One day in seconds.
DAY = 86400.0
#: Bytes per kilobyte (the paper's 16KB probes etc. use binary KB).
KB = 1024.0


@dataclass(frozen=True)
class TraceGenParams:
    """Tunable knobs of the synthetic trace model.

    The defaults reproduce the paper's reported trace statistics (≥10 %
    changes every ~2 minutes on average); the tests in
    ``tests/traces/test_synthetic.py`` pin that calibration down.
    """

    #: Seconds between samples (the paper probed continuously; its plots
    #: resolve ~30 s structure).
    sample_period: float = 30.0
    #: Length of the generated trace, seconds (the paper's traces: 2 days).
    duration: float = 2 * DAY
    #: AR(1) coefficient of the log-rate jitter per sample step.
    ar_rho: float = 0.75
    #: Innovation std-dev of the log-rate jitter per sample step.  0.07
    #: calibrates the >=10%-change interval to ~2 minutes (paper §4).
    ar_sigma: float = 0.07
    #: Fractional slowdown at the diurnal peak (0.5 => rate halves).
    diurnal_depth: float = 0.45
    #: Mean congestion episodes per hour on a path.
    episode_rate_per_hour: float = 0.8
    #: Mean episode duration, seconds.  Real wide-area congestion regimes
    #: persist for tens of minutes to hours; persistence is what makes a
    #: 5-10 minute relocation period pay off (Figure 9) — a measurement
    #: taken now still describes the next period, while an hour-old plan
    #: has rotted.
    episode_mean_duration: float = 1800.0
    #: Episode depth range: the rate is multiplied by U(lo, hi).
    episode_depth: tuple[float, float] = (0.15, 0.5)
    #: Long-shift process: mean shifts per day; each re-draws a persistent
    #: level multiplier from lognormal(0, long_shift_sigma).  Hour-scale
    #: persistent swings are what distinguish the paper's Figure 2 (right)
    #: from mere jitter.
    long_shifts_per_day: float = 8.0
    long_shift_sigma: float = 0.5


class SyntheticTraceModel:
    """Generates :class:`BandwidthTrace` objects for host pairs.

    Parameters
    ----------
    params:
        Model knobs; see :class:`TraceGenParams`.
    """

    def __init__(self, params: Optional[TraceGenParams] = None) -> None:
        self.params = params or TraceGenParams()

    def generate(
        self,
        base_rate: float,
        rng: np.random.Generator,
        tz_offset_hours: float = 0.0,
        name: str = "",
        start_time: float = 0.0,
    ) -> BandwidthTrace:
        """Generate one trace.

        Parameters
        ----------
        base_rate:
            Nominal path bandwidth in bytes/second (uncongested, off-peak).
        rng:
            Source of randomness (callers pass a seeded generator for
            reproducibility).
        tz_offset_hours:
            Effective timezone of the path (mean of the endpoints'), used
            to phase the diurnal cycle.  Time 0 of the trace is **midnight
            UTC**; experiments extract segments starting at local noon.
        name:
            Label for the trace.
        start_time:
            Time value of the first sample.
        """
        p = self.params
        if base_rate <= 0:
            raise ValueError(f"base_rate must be positive, got {base_rate!r}")
        n = int(math.ceil(p.duration / p.sample_period)) + 1
        times = start_time + np.arange(n) * p.sample_period

        # Diurnal multiplier: slowest at 14:00 local (afternoon peak load).
        local_hours = ((times / 3600.0) + tz_offset_hours) % 24.0
        phase = 2.0 * math.pi * (local_hours - 14.0) / 24.0
        diurnal = 1.0 - p.diurnal_depth * 0.5 * (1.0 + np.cos(phase))

        # AR(1) jitter on the log scale, stationary initial condition.
        # The recurrence runs over Python floats (IEEE doubles, so the
        # same values as numpy scalars) to skip per-element indexing.
        steady_sigma = p.ar_sigma / math.sqrt(max(1.0 - p.ar_rho**2, 1e-9))
        value = float(rng.normal(0.0, steady_sigma))
        innovations = rng.normal(0.0, p.ar_sigma, size=n - 1)
        rho = p.ar_rho
        log_jitter = [value]
        append = log_jitter.append
        for innovation in innovations.tolist():
            value = rho * value + innovation
            append(value)
        jitter = np.exp(np.array(log_jitter))

        # Congestion episodes: Poisson arrivals, exponential durations.
        episode_mult = np.ones(n)
        t = 0.0
        rate_per_sec = p.episode_rate_per_hour / 3600.0
        while True:
            t += rng.exponential(1.0 / rate_per_sec) if rate_per_sec > 0 else p.duration + 1
            if t >= p.duration:
                break
            duration = rng.exponential(p.episode_mean_duration)
            depth = rng.uniform(*p.episode_depth)
            lo = int(t / p.sample_period)
            hi = min(int((t + duration) / p.sample_period) + 1, n)
            episode_mult[lo:hi] = np.minimum(episode_mult[lo:hi], depth)

        # Persistent level shifts: piecewise-constant lognormal level.
        level_mult = np.ones(n)
        shift_rate = p.long_shifts_per_day / DAY
        if shift_rate > 0 and p.long_shift_sigma > 0:
            t = 0.0
            level_mult[:] = math.exp(rng.normal(0.0, p.long_shift_sigma))
            while True:
                t += rng.exponential(1.0 / shift_rate)
                if t >= p.duration:
                    break
                level = math.exp(rng.normal(0.0, p.long_shift_sigma))
                lo = int(t / p.sample_period)
                level_mult[lo:] = level

        rates = base_rate * diurnal * jitter * episode_mult * level_mult
        return BandwidthTrace(times, rates, name=name)
