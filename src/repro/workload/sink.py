"""The fleet-metrics sink: one accumulator for live and replayed fleets.

The live :class:`~repro.workload.engine.WorkloadEngine` and the
:func:`fleet_from_trace` replay feed the same protocol:

* :meth:`MetricsSink.query_started` when a query launches,
* :meth:`MetricsSink.query_finished` with its :class:`QueryStats`,
* :meth:`MetricsSink.link_transfer` for every wire transfer,
* :meth:`MetricsSink.summary` to produce the fleet summary dict, and
* :meth:`MetricsSink.merge` to fold sinks from sharded runs together.

:class:`FleetMetrics` implements it once.  Its counters, quantile
sketches (fleet and per class), per-client arrays (launched, completed
and latency sum — exact client means for Jain fairness) and per-link
accumulators cost O(classes + links + clients) memory whatever the
query count.  While the fleet is small enough it also keeps every
:class:`QueryStats`; then its latency blocks are exact (``np.percentile``
over the records) and the summary adds the per-client map, the
per-query rows and each link's per-query byte split.  Without records
the latency blocks come from the sketches.  Either way the summary
carries one ``workload_schema``, and ``bytes_on_wire`` is the
link-observed total (each wire transfer counted once).

Merging is order-invariant: integer counts add, float totals go through
:class:`~repro.workload.sketch.OrderFreeSum`, and kept records re-sort
into canonical (issue time, client, ordinal) order once any merge has
happened.  A merge copies what it adopts, so folding shards never
mutates them.  Shards are expected to partition *clients* (see
:func:`repro.workload.sweep.shard_clients`), which keeps per-query and
per-client attributions disjoint across shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Protocol, Sequence

import numpy as np

from repro.engine.metrics import RunMetrics
from repro.fleet.counters import CoordinationCounters
from repro.obs.events import (
    BREAKER_CLOSE,
    BREAKER_OPEN,
    FLEET_CLAIM,
    FLEET_DENY,
    FLEET_GRANT,
    FLEET_REBALANCE,
    LINK_TRANSFER,
    QUERY_DEADLINE_ABORT,
    QUERY_QUEUED,
    QUERY_RETRY,
    QUERY_SHED,
    RETRY_BUDGET_EXHAUSTED,
    RUN_END,
    RUN_META,
)
from repro.obs.summary import RunReplay
from repro.workload.metrics import WORKLOAD_SCHEMA, jain_index, latency_block
from repro.workload.overload import ResilienceCounters
from repro.workload.sketch import OrderFreeSum, QuantileSketch

#: Fleets whose full population (clients x queries per client) is at
#: most this many queries keep per-query records.
DEFAULT_EXACT_THRESHOLD = 1000

#: Relative error bound of the latency sketches (1%).
DEFAULT_RELATIVE_ERROR = 0.01

#: Record types that are trace framing, not simulation events.
_FRAME_TYPES = frozenset({"trace.header", "trace.footer", "trace.segment"})


def client_index_of(query_id: str) -> int:
    """The integer client index encoded in a ``"c{i}:{ordinal}"`` id.

    Retry attempts (``"c{i}:{ordinal}.r{n}"``) belong to the same client
    as the original submission.
    """
    return int(query_id.split(":", 1)[0][1:])


def _stats_sort_key(stats: "QueryStats") -> tuple[float, int, int, str]:
    head, _, tail = stats.query_id.partition(":")
    ordinal = tail.partition(".")[0]
    return (stats.issued_at, int(head[1:]), int(ordinal or 0), stats.query_id)


@dataclass(frozen=True)
class QueryStats:
    """One query's finished contribution, decoupled from RunMetrics.

    This is the record that crosses the sink API (and process pipes in
    sharded runs): small, flat and picklable, carrying exactly the
    fields the fleet summary needs.
    """

    query_id: str
    class_name: str
    algorithm: str
    issued_at: float
    #: Last arrival instant; ``None`` when nothing arrived.
    completion_time: Optional[float]
    images_delivered: int
    truncated: bool
    relocations: int
    aborted_relocations: int
    bytes_on_wire: float
    #: Planner-effort totals (trailing defaults keep old pickles valid).
    planner_rounds: int = 0
    planner_candidates: int = 0
    planner_links_queried: int = 0

    @property
    def finished(self) -> bool:
        return not self.truncated

    @property
    def latency(self) -> Optional[float]:
        if self.truncated or self.completion_time is None:
            return None
        return self.completion_time - self.issued_at

    @classmethod
    def from_metrics(
        cls,
        query_id: str,
        class_name: str,
        issued_at: float,
        metrics: RunMetrics,
    ) -> "QueryStats":
        return cls(
            query_id=query_id,
            class_name=class_name,
            algorithm=metrics.algorithm,
            issued_at=issued_at,
            completion_time=(
                metrics.completion_time if metrics.arrival_times else None
            ),
            images_delivered=len(metrics.arrival_times),
            truncated=metrics.truncated,
            relocations=metrics.relocations,
            aborted_relocations=metrics.aborted_relocations,
            bytes_on_wire=metrics.bytes_on_wire,
            planner_rounds=metrics.planner_rounds,
            planner_candidates=metrics.planner_candidates,
            planner_links_queried=metrics.planner_links_queried,
        )


class MetricsSink(Protocol):
    """What the engine and the replay reader feed fleet metrics through."""

    #: True while the sink keeps one :class:`QueryStats` per query.
    keeps_records: bool

    def query_started(
        self, query_id: str, class_name: str, issued_at: float
    ) -> None: ...

    def query_finished(self, stats: QueryStats) -> None: ...

    def link_transfer(
        self,
        src_host: str,
        dst_host: str,
        wire_bytes: float,
        busy_seconds: float,
        query_id: Optional[str] = None,
    ) -> None: ...

    def resilience_event(
        self,
        kind: str,
        class_name: Optional[str] = None,
        host: Optional[str] = None,
        value: Any = None,
    ) -> None: ...

    def coordination_event(
        self,
        kind: str,
        class_name: Optional[str] = None,
        link: Optional[str] = None,
        value: Any = None,
    ) -> None: ...

    def merge(self, other: "MetricsSink") -> "MetricsSink": ...

    def summary(
        self, elapsed: float, scheduled: Optional[int] = None
    ) -> dict[str, Any]: ...


class _LinkAccumulator:
    """Per-link counters whose float totals merge order-invariantly."""

    __slots__ = ("bytes", "busy_seconds", "transfers", "by_class", "by_query")

    def __init__(self, per_query: bool) -> None:
        self.bytes = OrderFreeSum()
        self.busy_seconds = OrderFreeSum()
        self.transfers = 0
        self.by_class: dict[str, OrderFreeSum] = {}
        #: Query id -> bytes, only while records are kept.  Query ids
        #: are shard-disjoint (client-hash sharding), so plain sums.
        self.by_query: Optional[dict[str, float]] = {} if per_query else None

    def note(
        self,
        wire_bytes: float,
        seconds: float,
        class_name: Optional[str],
        query_id: Optional[str],
    ) -> None:
        self.bytes.add(wire_bytes)
        self.busy_seconds.add(seconds)
        self.transfers += 1
        if class_name is not None:
            total = self.by_class.get(class_name)
            if total is None:
                total = self.by_class[class_name] = OrderFreeSum()
            total.add(wire_bytes)
        if query_id is not None and self.by_query is not None:
            self.by_query[query_id] = self.by_query.get(query_id, 0.0) + wire_bytes

    def merge(self, other: "_LinkAccumulator") -> None:
        self.bytes.merge(other.bytes)
        self.busy_seconds.merge(other.busy_seconds)
        self.transfers += other.transfers
        for name, total in other.by_class.items():
            self.by_class.setdefault(name, OrderFreeSum()).merge(total)
        if self.by_query is not None and other.by_query is not None:
            for key, value in other.by_query.items():
                self.by_query[key] = self.by_query.get(key, 0.0) + value

    def block(self, elapsed: float) -> dict[str, Any]:
        busy = self.busy_seconds.value
        entry = {
            "bytes": self.bytes.value,
            "busy_seconds": busy,
            "transfers": self.transfers,
            "utilization": (busy / elapsed) if elapsed > 0 else 0.0,
            "classes": {
                name: self.by_class[name].value for name in sorted(self.by_class)
            },
        }
        if self.by_query is not None:
            entry["queries"] = {
                qid: self.by_query[qid] for qid in sorted(self.by_query)
            }
        return entry


class _ClassStats:
    """Per-query-class counters and latency sketch."""

    __slots__ = ("launched", "completed", "truncated", "sketch")

    def __init__(self, relative_error: float) -> None:
        self.launched = 0
        self.completed = 0
        self.truncated = 0
        self.sketch = QuantileSketch(relative_error)

    def merge(self, other: "_ClassStats") -> None:
        self.launched += other.launched
        self.completed += other.completed
        self.truncated += other.truncated
        self.sketch.merge(other.sketch)


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` zero-padded to ``size`` entries (a copy when padded)."""
    if len(array) >= size:
        return array
    return np.concatenate([array, np.zeros(size - len(array), array.dtype)])


def _sketch_block(sketch: QuantileSketch) -> dict[str, Any]:
    return {
        "count": sketch.count,
        "mean": sketch.mean,
        "p50": sketch.percentile(50),
        "p95": sketch.percentile(95),
        "p99": sketch.percentile(99),
        "max": sketch.max,
    }


class FleetMetrics:
    """The fleet-metrics sink (see the module docstring).

    ``num_clients`` sizes the per-client arrays (they grow if a larger
    client index shows up); ``keep_records`` defaults to the class's
    :attr:`keeps_records_by_default`.  Sinks merge only with sinks of
    the same population, sketch accuracy and retention.
    """

    #: Retention when the constructor is not told otherwise.
    keeps_records_by_default = True

    def __init__(
        self,
        num_clients: int = 0,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        *,
        keep_records: Optional[bool] = None,
    ) -> None:
        if num_clients < 0:
            raise ValueError("num_clients must be non-negative")
        self.num_clients = int(num_clients)
        self.relative_error = float(relative_error)
        self.keeps_records = (
            self.keeps_records_by_default
            if keep_records is None
            else bool(keep_records)
        )
        self._records: list[QueryStats] = []
        self._was_merged = False
        self._fleet = QuantileSketch(self.relative_error)
        self._classes: dict[str, _ClassStats] = {}
        self._client_launched = np.zeros(self.num_clients, dtype=np.int64)
        self._client_completed = np.zeros(self.num_clients, dtype=np.int64)
        self._client_latency_sum = np.zeros(self.num_clients, dtype=np.float64)
        self._launched = 0
        self._completed = 0
        self._truncated = 0
        self._relocations = 0
        self._aborted_relocations = 0
        self._links: dict[tuple[str, str], _LinkAccumulator] = {}
        #: Query id -> class of every launched, unfinished query.
        self._inflight: dict[str, str] = {}
        self._resilience = ResilienceCounters()
        self._coordination = CoordinationCounters()

    # -- accumulation ---------------------------------------------------
    def _class(self, name: str) -> _ClassStats:
        stats = self._classes.get(name)
        if stats is None:
            stats = self._classes[name] = _ClassStats(self.relative_error)
        return stats

    def _client(self, query_id: str) -> int:
        index = client_index_of(query_id)
        if index >= len(self._client_launched):
            self._grow_clients(index + 1)
        return index

    def _grow_clients(self, size: int) -> None:
        self._client_launched = _grown(self._client_launched, size)
        self._client_completed = _grown(self._client_completed, size)
        self._client_latency_sum = _grown(self._client_latency_sum, size)

    def _link(self, src_host: str, dst_host: str) -> _LinkAccumulator:
        key = (src_host, dst_host) if src_host < dst_host else (dst_host, src_host)
        usage = self._links.get(key)
        if usage is None:
            usage = self._links[key] = _LinkAccumulator(self.keeps_records)
        return usage

    def query_started(
        self, query_id: str, class_name: str, issued_at: float
    ) -> None:
        self._launched += 1
        self._class(class_name).launched += 1
        index = self._client(query_id)
        self._client_launched[index] += 1
        self._inflight[query_id] = class_name

    def query_finished(self, stats: QueryStats) -> None:
        self._inflight.pop(stats.query_id, None)
        if self.keeps_records:
            self._records.append(stats)
        cls = self._class(stats.class_name)
        if stats.truncated:
            self._truncated += 1
            cls.truncated += 1
        else:
            self._completed += 1
            cls.completed += 1
        latency = stats.latency
        if latency is not None:
            self._fleet.add(latency)
            cls.sketch.add(latency)
            index = self._client(stats.query_id)
            self._client_completed[index] += 1
            self._client_latency_sum[index] += latency
        self._relocations += stats.relocations
        self._aborted_relocations += stats.aborted_relocations
        self._coordination.note_effort(
            stats.planner_rounds,
            stats.planner_candidates,
            stats.planner_links_queried,
        )

    def link_transfer(
        self,
        src_host: str,
        dst_host: str,
        wire_bytes: float,
        busy_seconds: float,
        query_id: Optional[str] = None,
    ) -> None:
        class_name = (
            self._inflight.get(query_id) if query_id is not None else None
        )
        self._link(src_host, dst_host).note(
            wire_bytes, busy_seconds, class_name, query_id
        )

    def observe(self, observation) -> None:
        """Adapter matching the :class:`~repro.net.network.Network`
        observer signature."""
        self.link_transfer(
            observation.src_host,
            observation.dst_host,
            observation.wire_bytes,
            observation.finished - observation.started,
            observation.query_id,
        )

    def resilience_event(
        self,
        kind: str,
        class_name: Optional[str] = None,
        host: Optional[str] = None,
        value: Any = None,
    ) -> None:
        """Record one overload-protection transition (see
        :class:`~repro.workload.overload.ResilienceCounters`)."""
        self._resilience.note(kind, class_name=class_name, host=host, value=value)

    def coordination_event(
        self,
        kind: str,
        class_name: Optional[str] = None,
        link: Optional[str] = None,
        value: Any = None,
    ) -> None:
        """Record one fleet-coordination transition (see
        :class:`~repro.fleet.counters.CoordinationCounters`)."""
        self._coordination.note(kind, class_name=class_name, link=link, value=value)

    def _drop_records(self) -> None:
        """Stop keeping per-query records and discard those kept so far."""
        self.keeps_records = False
        self._records = []
        for usage in self._links.values():
            usage.by_query = None

    # -- merging --------------------------------------------------------
    def merge(self, other: "FleetMetrics") -> "FleetMetrics":
        """Fold ``other`` into this sink; ``other`` is left unchanged."""
        if not isinstance(other, FleetMetrics):
            raise TypeError(f"cannot merge {type(other).__name__} into FleetMetrics")
        if other.num_clients != self.num_clients:
            raise ValueError(
                "cannot merge sinks over different client populations: "
                f"{self.num_clients} vs {other.num_clients}"
            )
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge sinks with different sketch accuracy: "
                f"{self.relative_error} vs {other.relative_error}"
            )
        if other.keeps_records != self.keeps_records:
            raise ValueError(
                "cannot merge sinks with different record retention: "
                f"{self.keeps_records} vs {other.keeps_records}"
            )
        self._records.extend(other._records)
        self._fleet.merge(other._fleet)
        for name, cls in other._classes.items():
            self._class(name).merge(cls)
        size = max(len(self._client_launched), len(other._client_launched))
        self._grow_clients(size)
        self._client_launched += _grown(other._client_launched, size)
        self._client_completed += _grown(other._client_completed, size)
        self._client_latency_sum += _grown(other._client_latency_sum, size)
        self._launched += other._launched
        self._completed += other._completed
        self._truncated += other._truncated
        self._relocations += other._relocations
        self._aborted_relocations += other._aborted_relocations
        for (a, b), usage in other._links.items():
            self._link(a, b).merge(usage)
        self._inflight.update(other._inflight)
        self._resilience.merge(other._resilience)
        self._coordination.merge(other._coordination)
        self._was_merged = True
        return self

    # -- the summary ----------------------------------------------------
    def summary(
        self, elapsed: float, scheduled: Optional[int] = None
    ) -> dict[str, Any]:
        """The fleet summary dict (``workload_schema`` 3)."""
        records = self._records
        if self._was_merged:
            records = sorted(records, key=_stats_sort_key)
        kept = self.keeps_records
        class_latencies: dict[str, list[float]] = {}
        for s in records:
            if s.latency is not None:
                class_latencies.setdefault(s.class_name, []).append(s.latency)

        def latency_of(sketch: QuantileSketch, latencies: list[float]):
            return latency_block(latencies) if kept else _sketch_block(sketch)

        launched = self._client_launched
        completed = self._client_completed
        mask = completed > 0
        client_means = self._client_latency_sum[mask] / completed[mask]
        payload: dict[str, Any] = {
            "workload_schema": WORKLOAD_SCHEMA,
            "mode": "exact" if kept else "streaming",
            "relative_error": self.relative_error,
            "elapsed": elapsed,
            "scheduled": self._launched if scheduled is None else scheduled,
            "launched": self._launched,
            "completed": self._completed,
            "truncated": self._truncated,
            "latency": latency_of(
                self._fleet,
                [s.latency for s in records if s.latency is not None],
            ),
            "fairness_jain": jain_index(client_means.tolist()),
            "per_class": {
                name: {
                    "launched": cls.launched,
                    "completed": cls.completed,
                    "truncated": cls.truncated,
                    "latency": latency_of(
                        cls.sketch, class_latencies.get(name, [])
                    ),
                }
                for name, cls in sorted(self._classes.items())
            },
            "clients": {
                "total": max(self.num_clients, len(launched)),
                "active": int((launched > 0).sum()),
            },
            "relocations": {
                "total": self._relocations,
                "per_query_mean": (
                    (self._relocations / self._launched)
                    if self._launched
                    else 0.0
                ),
                "aborted": self._aborted_relocations,
            },
            "bytes_on_wire": math.fsum(
                self._links[key].bytes.value for key in sorted(self._links)
            ),
            "links": {
                f"{a}--{b}": self._links[(a, b)].block(elapsed)
                for (a, b) in sorted(self._links)
            },
        }
        if kept:
            payload["per_client"] = {
                f"c{i}": {
                    "queries": int(launched[i]),
                    "completed": int(completed[i]),
                    "mean_latency": (
                        float(self._client_latency_sum[i] / completed[i])
                        if completed[i]
                        else None
                    ),
                }
                for i in np.flatnonzero(launched)
            }
            payload["queries"] = [
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
                for s in records
            ]
        if self._resilience.engaged:
            # Evidence-driven: the block appears only when protection
            # actually acted, so a defaults-off run (and its replay,
            # which cannot see the spec) stays bit-identical.
            payload["resilience"] = self._resilience.block(
                launched=self._launched,
                completed=self._completed,
                elapsed=elapsed,
            )
        if self._coordination.engaged:
            # Same evidence-driven gating: only fleet-coordination events
            # (claim/grant/deny/rebalance) surface the block, so blind
            # per-query planning keeps its summary bit-identical.
            payload["fleet"] = self._coordination.block()
        return payload


#: Kept for callers that name the sink by its retention default.
ExactFleetMetrics = FleetMetrics


class StreamingFleetMetrics(FleetMetrics):
    """:class:`FleetMetrics` that keeps no per-query records by default."""

    keeps_records_by_default = False


def merge_sinks(parts: Sequence[MetricsSink]) -> MetricsSink:
    """Fold shard sinks into the first one; the result is order-invariant.

    Because every sink merge is order-invariant, any permutation of
    ``parts`` produces an identical summary (pinned by tests).
    """
    if not parts:
        raise ValueError("merge_sinks() needs at least one sink")
    head = parts[0]
    for other in parts[1:]:
        head.merge(other)
    return head


def note_slo(
    metrics: MetricsSink, stats: QueryStats, slo: Optional[float]
) -> None:
    """Record one completed query against its class SLO target.

    The same comparison runs in the live engine and in the replay, so
    attainment reconciles bit-exactly.
    """
    if slo is None:
        return
    latency = stats.latency
    if latency is None:
        return
    metrics.resilience_event("slo", stats.class_name, value=latency <= slo)


# -- replay ------------------------------------------------------------


def _peek_header(
    records: Iterable[dict[str, Any]],
) -> tuple[dict[str, Any], Iterator[dict[str, Any]]]:
    """The trace-header meta (``{}`` if absent) and a rewound iterator."""
    iterator = iter(records)
    first = next(iterator, None)
    if first is None:
        return {}, iter(())

    def rewound() -> Iterator[dict[str, Any]]:
        yield first
        yield from iterator

    meta = (
        first.get("meta", {})
        if first.get("type") in ("trace.header", "trace.segment")
        else {}
    )
    return meta, rewound()


#: Trace event type -> resilience-counter kind, for replay.
_RESILIENCE_EVENTS = {
    QUERY_SHED: "shed",
    QUERY_QUEUED: "queued",
    QUERY_DEADLINE_ABORT: "deadline_abort",
    QUERY_RETRY: "retry",
    RETRY_BUDGET_EXHAUSTED: "retry_budget_exhausted",
    BREAKER_OPEN: "breaker_open",
    BREAKER_CLOSE: "breaker_close",
}

#: Trace event type -> coordination-counter kind, for replay.  ``grant``
#: carries the granted move count and ``deny`` its bottleneck bucket,
#: mirroring the live :class:`~repro.fleet.coordinator.FleetCoordinator`
#: calls exactly.
_COORDINATION_EVENTS = {
    FLEET_CLAIM: "claim",
    FLEET_GRANT: "grant",
    FLEET_DENY: "deny",
    FLEET_REBALANCE: "rebalance",
}

#: Event types every scheduled arrival leaves at least one of.
_FOOTPRINT_TYPES = frozenset({RUN_META, QUERY_SHED, QUERY_DEADLINE_ABORT})


def _replay(
    metrics: MetricsSink,
    records: Iterable[dict[str, Any]],
    footprints: Optional[set[str]] = None,
) -> float:
    """Feed a trace into ``metrics`` in one pass; returns the elapsed time.

    Each *open* query keeps a :class:`~repro.obs.summary.RunReplay` fed
    its tagged records, so memory follows concurrency, not trace length.
    At the query's ``run.end`` its :class:`QueryStats` comes from
    :meth:`QueryStats.from_metrics` over the replayed metrics, exactly as
    the live engine builds it.  A ``run.end`` whose ``run.meta`` lived in
    a rotated-away segment is skipped.  When ``footprints`` is given, it
    collects the base id of every scheduled arrival (retries collapse
    onto their original).
    """
    # Query id -> (replay, class name, run.meta record) while open.
    open_queries: dict[str, tuple[RunReplay, str, dict[str, Any]]] = {}
    elapsed = 0.0
    for record in records:
        rtype = record.get("type")
        if rtype is None or rtype in _FRAME_TYPES:
            continue
        qid = record.get("query_id")
        if footprints is not None and qid is not None and rtype in _FOOTPRINT_TYPES:
            footprints.add(qid.partition(".r")[0])
        query = open_queries.get(qid) if qid is not None else None
        if query is not None:
            query[0].feed(record)
        if rtype == LINK_TRANSFER:
            metrics.link_transfer(
                record["src_host"],
                record["dst_host"],
                record["wire_bytes"],
                record["dur"],
                qid,
            )
        elif rtype == RUN_META:
            if qid is None or query is not None:
                continue
            replay = RunReplay()
            replay.feed(record)
            class_name = record.get("query_class", record["algorithm"])
            open_queries[qid] = (replay, class_name, record)
            if record.get("degraded"):
                metrics.resilience_event("degraded", class_name)
            metrics.query_started(qid, class_name, record["t"])
        elif rtype == RUN_END:
            elapsed = max(elapsed, record["t"])
            if query is None:
                continue
            del open_queries[qid]
            replay, class_name, meta = query
            stats = QueryStats.from_metrics(
                qid, class_name, meta["t"], RunMetrics.from_replay(replay)
            )
            metrics.query_finished(stats)
            note_slo(metrics, stats, meta.get("slo"))
        elif rtype in _COORDINATION_EVENTS:
            metrics.coordination_event(
                _COORDINATION_EVENTS[rtype],
                class_name=record.get("query_class"),
                link=record.get("bottleneck"),
                value=record.get("moves"),
            )
        elif rtype in _RESILIENCE_EVENTS:
            metrics.resilience_event(
                _RESILIENCE_EVENTS[rtype],
                class_name=record.get("query_class"),
                host=record.get("host"),
                value=record.get("depth"),
            )
    return elapsed


def fleet_from_trace(
    records: Iterable[dict[str, Any]],
    metrics: Optional[MetricsSink] = None,
    *,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> dict[str, Any]:
    """Rebuild the fleet summary from a recorded workload trace.

    Accepts a record list or a lazy record stream (e.g.
    :func:`repro.obs.rotating.read_segments`); header/footer/segment
    frames are ignored.  The sink is built as for the live run: it keeps
    records while the fleet's full population (``num_clients`` x
    ``queries_per_client``) is within ``exact_threshold``.  A headerless
    trace (e.g. ``Tracer.events``) rebuilds its client count and
    scheduled arrivals from the arrivals' footprints and takes the
    latter as the population.  Pass ``metrics`` to supply the sink
    yourself.
    """
    meta, stream = _peek_header(records)
    num_clients = meta.get("num_clients")
    scheduled = meta.get("scheduled_queries")
    population = scheduled
    if num_clients is not None and "queries_per_client" in meta:
        population = num_clients * meta["queries_per_client"]
    built = metrics is None
    if metrics is None:
        metrics = FleetMetrics(
            num_clients or 0,
            keep_records=population is None or population <= exact_threshold,
        )
    footprints: Optional[set[str]] = set() if scheduled is None else None
    elapsed = _replay(metrics, stream, footprints)
    if footprints:
        scheduled = len(footprints)
        if built and num_clients is None:
            metrics.num_clients = 1 + max(map(client_index_of, footprints))
        if built and population is None and scheduled > exact_threshold:
            metrics._drop_records()
    return metrics.summary(elapsed, scheduled=scheduled)
