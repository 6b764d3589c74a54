"""Statistics helpers for experiment results.

The paper reports means and medians over 300 paired configurations; a
careful reproduction should also say how certain those numbers are.
This module provides paired-bootstrap confidence intervals and a compact
summary type used by the report generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Interval:
    """A point estimate with a bootstrap confidence interval."""

    point: float
    low: float
    high: float
    confidence: float

    def __str__(self) -> str:
        return f"{self.point:.2f} [{self.low:.2f}, {self.high:.2f}]"


#: Statistics evaluated on the whole resample matrix at once via their
#: ``axis`` keyword instead of one Python call per resample row.  They
#: produce bit-identical values either way (same reduction, same order),
#: so the fast path is a pure speedup.
_AXIS_AWARE = (np.median, np.mean, np.min, np.max, np.sum)


def bootstrap(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.median,
    n_resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> Interval:
    """Percentile-bootstrap confidence interval for ``statistic``.

    Resampling is over configurations, matching the paper's unit of
    randomness (the trace-to-link assignment).  The common NumPy
    reductions (:data:`_AXIS_AWARE`) are applied to the whole
    ``(n_resamples, n)`` matrix in one vectorized call; any other
    statistic falls back to the row-at-a-time path with identical
    results.
    """
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be positive, got {n_resamples!r}")
    rng = np.random.default_rng(seed)
    point = float(statistic(data))
    if data.size == 1:
        return Interval(point, point, point, confidence)
    indices = rng.integers(0, data.size, size=(n_resamples, data.size))
    resamples = data[indices]
    if any(statistic is fast for fast in _AXIS_AWARE):
        stats = statistic(resamples, axis=1)
    else:
        stats = np.apply_along_axis(statistic, 1, resamples)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return Interval(point, float(low), float(high), confidence)


def paired_ratio(
    numerators: Sequence[float],
    denominators: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.median,
    **kwargs,
) -> Interval:
    """Bootstrap CI of a statistic of per-configuration ratios.

    Used for the paper's "median global/one-shot speedup ratio": the
    pairing (same configuration for both algorithms) is preserved by
    resampling ratio values, not the two samples independently.
    """
    num = np.asarray(list(numerators), dtype=float)
    den = np.asarray(list(denominators), dtype=float)
    if num.shape != den.shape:
        raise ValueError("paired samples must have equal length")
    if np.any(den == 0):
        raise ValueError("denominator contains zero")
    return bootstrap(num / den, statistic=statistic, **kwargs)


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Plain five-number-ish summary for tables."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("empty sample")
    return {
        "mean": float(np.mean(data)),
        "median": float(np.median(data)),
        "min": float(np.min(data)),
        "max": float(np.max(data)),
        "p25": float(np.quantile(data, 0.25)),
        "p75": float(np.quantile(data, 0.75)),
    }
