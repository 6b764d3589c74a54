"""Mergeable, deterministic accumulators for streaming fleet metrics.

Million-query fleets cannot keep exact latency lists, so the fleet
metrics sink (:mod:`repro.workload.sink`) aggregates into two pure-python
structures whose merges are *exactly* associative and commutative — the
property that makes client-hash sharding order-invariant:

* :class:`QuantileSketch` — a DDSketch-style logarithmic-bucket
  histogram.  Bucket counts are integers, so merging is plain integer
  addition in any order; quantile estimates carry a guaranteed relative
  error bound of ``relative_error`` (the bucket width).  We chose this
  over P²/t-digest (the other classic streaming-quantile designs)
  precisely because their centroid merges are order-sensitive: a
  t-digest merged A+(B+C) differs from (A+B)+C in the last float bits,
  which would break the sharding acceptance criterion.

* :class:`OrderFreeSum` — a float accumulator whose merged value is
  independent of merge order.  Each shard accumulates one ordinary
  partial sum; merging concatenates the partials and the final value is
  ``math.fsum`` over them, which is exactly rounded and therefore a pure
  function of the *multiset* of partials.

Neither structure imports anything beyond the stdlib, and both pickle
cleanly across process pools.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional

__all__ = ["OrderFreeSum", "QuantileSketch"]


class OrderFreeSum:
    """A float sum whose value is invariant under merge order.

    Local adds fold into the current partial with ordinary ``+=`` (so an
    unmerged, single-shard accumulator reproduces today's exact
    accumulation bit for bit); :meth:`merge` concatenates partial lists;
    :attr:`value` is the exactly-rounded ``math.fsum`` of the partials.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Optional[Iterable[float]] = None) -> None:
        self._parts: list[float] = list(parts) if parts is not None else [0.0]
        if not self._parts:
            self._parts = [0.0]

    def add(self, value: float) -> None:
        self._parts[-1] += value

    def merge(self, other: "OrderFreeSum") -> "OrderFreeSum":
        self._parts.extend(other._parts)
        return self

    @property
    def value(self) -> float:
        if len(self._parts) == 1:
            return self._parts[0]
        return math.fsum(self._parts)

    @property
    def parts(self) -> tuple[float, ...]:
        return tuple(self._parts)

    def __getstate__(self) -> list[float]:
        return self._parts

    def __setstate__(self, state: list[float]) -> None:
        self._parts = list(state) or [0.0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderFreeSum({self.value!r}, parts={len(self._parts)})"


class QuantileSketch:
    """A mergeable log-bucket quantile sketch with bounded relative error.

    Positive values land in bucket ``ceil(log_gamma(v))`` where
    ``gamma = (1 + eps) / (1 - eps)``; a bucket's representative value is
    the harmonic midpoint ``2 * gamma**i / (gamma + 1)``, which bounds
    the relative error of any quantile estimate by ``eps``.  Values at or
    below ``min_positive`` share one exact zero bucket.  Counts are
    integers, so :meth:`merge` is associative and commutative exactly —
    not merely up to float rounding.

    The sketch additionally tracks exact ``count``/``min``/``max`` and an
    :class:`OrderFreeSum` of values, so ``mean`` and the extreme
    quantiles stay exact and merge order-invariant too.
    """

    __slots__ = (
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_min_positive",
        "_buckets",
        "_zero_count",
        "_count",
        "_min",
        "_max",
        "_sum",
    )

    def __init__(
        self,
        relative_error: float = 0.01,
        *,
        min_positive: float = 1e-9,
    ) -> None:
        if not (0.0 < relative_error < 1.0):
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error!r}"
            )
        self.relative_error = float(relative_error)
        self._gamma = (1.0 + self.relative_error) / (1.0 - self.relative_error)
        self._log_gamma = math.log(self._gamma)
        self._min_positive = float(min_positive)
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = OrderFreeSum()

    # -- accumulation ---------------------------------------------------
    def add(self, value: float) -> None:
        value = float(value)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"sketch values must be finite and >= 0: {value!r}")
        self._count += 1
        self._sum.add(value)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= self._min_positive:
            self._zero_count += 1
            return
        key = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # -- merging --------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge sketches with different error bounds: "
                f"{self.relative_error} vs {other.relative_error}"
            )
        for key, count in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + count
        self._zero_count += other._zero_count
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._sum.merge(other._sum)
        return self

    # -- queries --------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> Optional[float]:
        if self._count == 0:
            return None
        return self._sum.value / self._count

    @property
    def min(self) -> Optional[float]:
        return self._min if self._count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self._count else None

    def quantile(self, q: float) -> Optional[float]:
        """The estimated ``q``-quantile (``0 <= q <= 1``) or ``None``.

        Uses the nearest-rank convention on ``rank = q * (count - 1)``;
        estimates are clamped into the exact observed ``[min, max]``, so
        q=0 and q=1 are exact and every estimate in between is within
        ``relative_error`` of a true order statistic.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self._count == 0:
            return None
        rank = q * (self._count - 1)
        cumulative = self._zero_count
        if rank < cumulative:
            return max(0.0, min(self._min, self._min_positive))
        estimate = self._max
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            if rank < cumulative:
                estimate = 2.0 * self._gamma**key / (self._gamma + 1.0)
                break
        return min(self._max, max(self._min, estimate))

    def percentile(self, p: float) -> Optional[float]:
        """:meth:`quantile` on the ``[0, 100]`` scale."""
        return self.quantile(p / 100.0)

    # -- persistence ----------------------------------------------------
    def to_state(self) -> dict[str, Any]:
        """A JSON-friendly snapshot (bucket keys as strings)."""
        return {
            "relative_error": self.relative_error,
            "min_positive": self._min_positive,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
            "zero_count": self._zero_count,
            "count": self._count,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "sum_parts": list(self._sum.parts),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "QuantileSketch":
        sketch = cls(
            state["relative_error"], min_positive=state["min_positive"]
        )
        sketch._buckets = {int(k): int(v) for k, v in state["buckets"].items()}
        sketch._zero_count = int(state["zero_count"])
        sketch._count = int(state["count"])
        sketch._min = math.inf if state["min"] is None else float(state["min"])
        sketch._max = -math.inf if state["max"] is None else float(state["max"])
        sketch._sum = OrderFreeSum(state["sum_parts"])
        return sketch

    def __getstate__(self) -> dict[str, Any]:
        return self.to_state()

    def __setstate__(self, state: dict[str, Any]) -> None:
        restored = QuantileSketch.from_state(state)
        for slot in self.__slots__:
            setattr(self, slot, getattr(restored, slot))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(eps={self.relative_error}, count={self._count}, "
            f"buckets={len(self._buckets)})"
        )

