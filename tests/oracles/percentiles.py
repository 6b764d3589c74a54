"""Exact order statistics: the quantile sketches' ground truth."""

from __future__ import annotations

from typing import Sequence


def exact_percentiles(
    values: Sequence[float], percentiles: Sequence[float]
) -> list[float]:
    """Nearest-rank order statistics.

    Unlike ``np.percentile`` (which interpolates), this returns actual
    observed values, so sketch-vs-exact error-bound tests compare like
    with like.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("need at least one value")
    out = []
    for p in percentiles:
        rank = (p / 100.0) * (len(ordered) - 1)
        out.append(ordered[round(rank)])
    return out
