"""Fleet-level metrics for concurrent workloads.

One query's outcome is a plain :class:`~repro.engine.metrics.RunMetrics`;
this module aggregates a fleet of them — plus the shared network's
per-link usage — into a schema-tagged summary dict:

* latency percentiles (p50/p95/p99) over completed queries, where a
  query's latency is its last arrival minus its issue instant;
* Jain's fairness index over per-client mean latencies;
* relocations per query and per-link utilization/contention on the
  shared substrate.

Both the live engine and the
:func:`~repro.workload.sink.fleet_from_trace` replay feed the
:class:`~repro.workload.sink.MetricsSink` funnel; this module holds the
exact (``workload_schema: 1``) summary construction the sink's exact
path delegates to, plus the shared conventions (latency-block key set,
Jain's index) the streaming schema-2 path reuses.  Small fleets are
byte-identical to the pre-sink summaries; large fleets stream through
:class:`~repro.workload.sink.StreamingFleetMetrics` instead of
materializing per-query rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.engine.metrics import RunMetrics
from repro.workload.sink import QueryStats
from repro.workload.spec import client_of

#: Version tag carried by every exact fleet summary dict.
WORKLOAD_SCHEMA = 1

#: Version tag carried by streaming (sketch-based) fleet summaries.
STREAMING_SCHEMA = 2

#: The latency block's key set — identical in both schemas, and emitted
#: in full (``None``-valued) even for empty fleets.
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


@dataclass
class LinkUsage:
    """Accumulated wire activity on one canonical host pair."""

    bytes: float = 0.0
    busy_seconds: float = 0.0
    transfers: int = 0
    #: Bytes attributable to each query (untagged traffic is excluded).
    by_query: dict[str, float] = field(default_factory=dict)

    def note(
        self, wire_bytes: float, seconds: float, query_id: Optional[str]
    ) -> None:
        self.bytes += wire_bytes
        self.busy_seconds += seconds
        self.transfers += 1
        if query_id is not None:
            self.by_query[query_id] = self.by_query.get(query_id, 0.0) + wire_bytes


class LinkUsageRecorder:
    """A network observer collecting per-link, per-query usage."""

    def __init__(self) -> None:
        self.links: dict[tuple[str, str], LinkUsage] = {}

    def observe(self, observation) -> None:
        a, b = observation.src_host, observation.dst_host
        key = (a, b) if a < b else (b, a)
        usage = self.links.get(key)
        if usage is None:
            usage = self.links[key] = LinkUsage()
        usage.note(
            observation.wire_bytes,
            observation.finished - observation.started,
            observation.query_id,
        )


@dataclass
class QueryOutcome:
    """One query's contribution to the fleet summary."""

    query_id: str
    class_name: str
    issued_at: float
    metrics: RunMetrics

    @property
    def finished(self) -> bool:
        return not self.metrics.truncated

    @property
    def latency(self) -> Optional[float]:
        if self.metrics.truncated or not self.metrics.arrival_times:
            return None
        return self.metrics.completion_time - self.issued_at

    def stats(self) -> QueryStats:
        """The flat :class:`~repro.workload.sink.QueryStats` view."""
        return QueryStats.from_metrics(
            self.query_id, self.class_name, self.issued_at, self.metrics
        )


def _latency_block(latencies: Sequence[float]) -> dict[str, Any]:
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


def build_fleet_summary(
    outcomes: Sequence[Union[QueryOutcome, QueryStats]],
    links: dict[tuple[str, str], LinkUsage],
    elapsed: float,
    scheduled: Optional[int] = None,
) -> dict[str, Any]:
    """The exact fleet summary dict (``"workload_schema": 1``).

    ``outcomes`` must be in launch order (:class:`QueryOutcome` entries
    are converted to their :class:`QueryStats` view); ``scheduled`` is
    the number of queries the workload *planned* (closed-loop sessions
    truncated by ``max_sim_time`` may launch fewer).
    """
    stats = [
        o.stats() if isinstance(o, QueryOutcome) else o for o in outcomes
    ]
    latencies = [s.latency for s in stats if s.latency is not None]
    per_client: dict[str, dict[str, Any]] = {}
    for s in stats:
        client = client_of(s.query_id)
        bucket = per_client.setdefault(
            client, {"queries": 0, "completed": 0, "latencies": []}
        )
        bucket["queries"] += 1
        if s.latency is not None:
            bucket["completed"] += 1
            bucket["latencies"].append(s.latency)
    client_means = []
    for client in sorted(per_client):
        bucket = per_client[client]
        values = bucket.pop("latencies")
        bucket["mean_latency"] = (
            float(np.mean(values)) if values else None
        )
        if bucket["mean_latency"] is not None:
            client_means.append(bucket["mean_latency"])

    relocations = sum(s.relocations for s in stats)
    link_block: dict[str, Any] = {}
    for (a, b), usage in sorted(links.items()):
        link_block[f"{a}--{b}"] = {
            "bytes": usage.bytes,
            "busy_seconds": usage.busy_seconds,
            "transfers": usage.transfers,
            "utilization": (usage.busy_seconds / elapsed) if elapsed > 0 else 0.0,
            "queries": {
                qid: usage.by_query[qid] for qid in sorted(usage.by_query)
            },
        }

    return {
        "workload_schema": WORKLOAD_SCHEMA,
        "elapsed": elapsed,
        "scheduled": len(stats) if scheduled is None else scheduled,
        "launched": len(stats),
        "completed": sum(1 for s in stats if s.finished),
        "truncated": sum(1 for s in stats if not s.finished),
        "latency": _latency_block(latencies),
        "fairness_jain": jain_index(client_means),
        "relocations": {
            "total": relocations,
            "per_query_mean": (relocations / len(stats)) if stats else 0.0,
            "aborted": sum(s.aborted_relocations for s in stats),
        },
        "bytes_on_wire": sum(s.bytes_on_wire for s in stats),
        "links": link_block,
        "per_client": per_client,
        "queries": [
            {
                "query_id": s.query_id,
                "class": s.class_name,
                "algorithm": s.algorithm,
                "issued_at": s.issued_at,
                "latency": s.latency,
                "completion_time": s.completion_time,
                "truncated": s.truncated,
                "images_delivered": s.images_delivered,
                "relocations": s.relocations,
                "bytes_on_wire": s.bytes_on_wire,
            }
            for s in stats
        ],
    }
