"""Fleet-metrics conventions shared by the sink and its readers.

One query's outcome is a plain :class:`~repro.obs.metrics.RunMetrics`;
the :class:`~repro.workload.sink.FleetMetrics` sink aggregates a fleet of
them — plus the shared network's per-link usage — into one
schema-tagged summary dict:

* latency percentiles (p50/p95/p99) over completed queries, where a
  query's latency is its last arrival minus its issue instant;
* Jain's fairness index over per-client mean latencies;
* relocations per query and per-link utilization/contention on the
  shared substrate.

This module holds the pieces of that summary that do not depend on the
sink's state: the schema tag, the latency block's key set and its exact
construction, and Jain's index.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

#: Version tag carried by every fleet summary dict.
WORKLOAD_SCHEMA = 3

#: The latency block's key set, emitted in full (``None``-valued) even
#: for empty fleets.
LATENCY_KEYS = ("count", "mean", "p50", "p95", "p99", "max")


def jain_index(values: Sequence[Optional[float]]) -> float:
    """Jain's fairness index over ``values`` (1.0 = perfectly fair).

    ``None`` entries (clients with no completed queries) are skipped;
    degenerate inputs — empty, all-zero, or non-finite — fall back to
    1.0 rather than dividing by a zero or NaN square sum.
    """
    xs = [float(v) for v in values if v is not None]
    if not xs:
        return 1.0
    square_sum = sum(v * v for v in xs)
    if square_sum == 0.0 or not math.isfinite(square_sum):
        return 1.0
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


def latency_block(latencies: Sequence[float]) -> dict[str, Any]:
    """The exact latency block: ``np.percentile`` over every latency."""
    if not latencies:
        return {key: (0 if key == "count" else None) for key in LATENCY_KEYS}
    arr = np.asarray(latencies, dtype=float)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }
