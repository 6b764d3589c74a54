"""The fleet-metrics sink: one accumulator for live and replayed fleets.

The live :class:`~repro.workload.engine.WorkloadEngine` and the
:func:`fleet_from_trace` replay feed the same protocol:

* :meth:`MetricsSink.query_started` when a query launches,
* :meth:`MetricsSink.query_finished` with its :class:`QueryStats`,
* :meth:`MetricsSink.link_transfer` for every wire transfer,
* :meth:`MetricsSink.fleet_event` for every overload-protection and
  fleet-coordination transition, with the trace event's type and
  fields (the replay hands it the recorded event itself),
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

The ``resilience`` and ``fleet`` blocks come from one integer tally of
fleet events.  Each appears only once an event it reports has been
counted, so a run without overload protection or coordination (and its
replay, which cannot see the spec) keeps a summary without them.  The
planner-effort totals accumulate on every run but surface only in the
``fleet`` block, so they never engage it on their own.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Optional, Protocol, Sequence

import numpy as np

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
from repro.obs.exporters import FRAME_TYPES
from repro.obs.metrics import RunMetrics
from repro.workload.metrics import WORKLOAD_SCHEMA, jain_index, latency_block
from repro.workload.sketch import OrderFreeSum, QuantileSketch

#: Fleets whose full population (clients x queries per client) is at
#: most this many queries keep per-query records.
DEFAULT_EXACT_THRESHOLD = 1000

#: Relative error bound of the latency sketches (1%).
DEFAULT_RELATIVE_ERROR = 0.01

#: Fleet event type -> the tally it bumps, and the field (if any) whose
#: value also gets its own count under ``(tally, value)``.
_EVENT_TALLIES: dict[str, tuple[str, Optional[str]]] = {
    QUERY_SHED: ("shed", "query_class"),
    QUERY_QUEUED: ("queued", None),
    QUERY_DEADLINE_ABORT: ("deadline_aborts", "query_class"),
    QUERY_RETRY: ("retries", None),
    RETRY_BUDGET_EXHAUSTED: ("retry_budget_exhausted", None),
    BREAKER_OPEN: ("breaker_opens", "host"),
    BREAKER_CLOSE: ("breaker_closes", None),
    FLEET_CLAIM: ("claims", None),
    FLEET_GRANT: ("grants", None),
    FLEET_DENY: ("denies", "bottleneck"),
    FLEET_REBALANCE: ("rebalances", None),
}

#: Tallies whose count puts the ``resilience`` block in the summary
#: (besides any per-class count), and those that put the ``fleet`` block.
_RESILIENCE_TALLIES = (
    "shed",
    "queued",
    "deadline_aborts",
    "retries",
    "retry_budget_exhausted",
    "breaker_opens",
    "degraded",
)
_COORDINATION_TALLIES = ("claims", "grants", "denies", "rebalances")

#: Per-class tallies of the ``resilience`` block.
_CLASS_TALLIES = ("shed", "deadline_aborts", "degraded", "slo_total")


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
        self,
        query_id: str,
        class_name: str,
        issued_at: float,
        degraded: bool = False,
    ) -> None: ...

    def query_finished(
        self, stats: QueryStats, slo: Optional[float] = None
    ) -> None: ...

    def link_transfer(
        self,
        src_host: str,
        dst_host: str,
        wire_bytes: float,
        busy_seconds: float,
        query_id: Optional[str] = None,
    ) -> None: ...

    def fleet_event(
        self, event_type: str, fields: Mapping[str, Any]
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
        #: Fleet-event and planner-effort counts (see ``_EVENT_TALLIES``).
        self._tally: Counter = Counter()
        self._queue_peak = 0

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
        self,
        query_id: str,
        class_name: str,
        issued_at: float,
        degraded: bool = False,
    ) -> None:
        """A query launched; ``degraded`` if an open breaker rerouted it."""
        self._launched += 1
        self._class(class_name).launched += 1
        index = self._client(query_id)
        self._client_launched[index] += 1
        self._inflight[query_id] = class_name
        if degraded:
            self._tally["degraded"] += 1
            self._tally["degraded", class_name] += 1

    def query_finished(
        self, stats: QueryStats, slo: Optional[float] = None
    ) -> None:
        """A query ended; a completed one is checked against its class
        ``slo`` target, if it has one."""
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
            if slo is not None:
                self._tally["slo_total", stats.class_name] += 1
                if latency <= slo:
                    self._tally["slo_hits", stats.class_name] += 1
        self._relocations += stats.relocations
        self._aborted_relocations += stats.aborted_relocations
        tally = self._tally
        tally["planner_rounds"] += stats.planner_rounds
        tally["planner_candidates"] += stats.planner_candidates
        tally["planner_links_queried"] += stats.planner_links_queried

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

    def fleet_event(self, event_type: str, fields: Mapping[str, Any]) -> None:
        """Count one overload or coordination transition: its trace
        event type and the fields it was (or would be) emitted with."""
        try:
            name, split = _EVENT_TALLIES[event_type]
        except KeyError:
            raise ValueError(f"not a fleet event type: {event_type!r}") from None
        tally = self._tally
        tally[name] += 1
        if split is not None:
            tally[name, fields[split]] += 1
        if event_type == QUERY_QUEUED:
            self._queue_peak = max(self._queue_peak, fields["depth"])
        elif event_type == FLEET_GRANT:
            tally["granted_moves"] += fields["moves"]

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
        self._tally.update(other._tally)
        self._queue_peak = max(self._queue_peak, other._queue_peak)
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
        tally = self._tally
        per_class = sorted(
            {
                key[1]
                for key in tally
                if isinstance(key, tuple) and key[0] in _CLASS_TALLIES
            }
        )
        if per_class or any(tally[name] for name in _RESILIENCE_TALLIES):
            payload["resilience"] = self._resilience_block(per_class, elapsed)
        if any(tally[name] for name in _COORDINATION_TALLIES):
            payload["fleet"] = self._fleet_block()
        return payload

    def _split(self, name: str) -> dict[str, int]:
        """The ``(name, value)`` counts of one tally, by sorted value."""
        counts = {
            key[1]: count
            for key, count in self._tally.items()
            if isinstance(key, tuple) and key[0] == name
        }
        return dict(sorted(counts.items()))

    def _resilience_block(
        self, per_class: list[str], elapsed: float
    ) -> dict[str, Any]:
        """The summary's ``resilience`` block.

        Rates derive only from merged integer counts (plus the fleet's
        launched/completed), so any shard order and the trace replay
        produce the identical block.
        """
        tally = self._tally
        offered = tally["shed"] + self._launched
        return {
            "shed": tally["shed"],
            "shed_rate": (tally["shed"] / offered) if offered else 0.0,
            "queued": tally["queued"],
            "queue_peak": self._queue_peak,
            "deadline_aborts": tally["deadline_aborts"],
            "deadline_miss_rate": (
                (tally["deadline_aborts"] / offered) if offered else 0.0
            ),
            "retries": tally["retries"],
            "retry_budget_exhausted": tally["retry_budget_exhausted"],
            "breaker": {
                "opens": tally["breaker_opens"],
                "closes": tally["breaker_closes"],
                "hosts": self._split("breaker_opens"),
            },
            "degraded": tally["degraded"],
            "goodput": (self._completed / elapsed) if elapsed > 0 else 0.0,
            "per_class": {
                name: {
                    "shed": tally["shed", name],
                    "deadline_aborts": tally["deadline_aborts", name],
                    "degraded": tally["degraded", name],
                    "slo_eligible": tally["slo_total", name],
                    "slo_attainment": (
                        (tally["slo_hits", name] / tally["slo_total", name])
                        if tally["slo_total", name]
                        else None
                    ),
                }
                for name in per_class
            },
        }

    def _fleet_block(self) -> dict[str, Any]:
        """The summary's ``fleet`` block (merged integer counts only)."""
        tally = self._tally
        decisions = tally["grants"] + tally["denies"]
        return {
            "claims": tally["claims"],
            "grants": tally["grants"],
            "denies": tally["denies"],
            "rebalances": tally["rebalances"],
            "granted_moves": tally["granted_moves"],
            "grant_rate": tally["grants"] / decisions if decisions else 1.0,
            "denied_links": self._split("denies"),
            "planner_rounds": tally["planner_rounds"],
            "planner_candidates": tally["planner_candidates"],
            "planner_links_queried": tally["planner_links_queried"],
        }


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


#: Event types every scheduled arrival leaves at least one of.
_FOOTPRINT_TYPES = frozenset({RUN_META, QUERY_SHED, QUERY_DEADLINE_ABORT})


def _replay(
    metrics: MetricsSink,
    records: Iterable[dict[str, Any]],
    footprints: Optional[set[str]] = None,
) -> float:
    """Feed a trace into ``metrics`` in one pass; returns the elapsed time.

    Each *open* query keeps a :class:`RunMetrics` fed its tagged
    records, so memory follows concurrency, not trace length.  At the
    query's ``run.end`` its :class:`QueryStats` comes from
    :meth:`QueryStats.from_metrics` over the replayed metrics, exactly as
    the live engine builds it.  A ``run.end`` whose ``run.meta`` lived in
    a rotated-away segment is skipped.  When ``footprints`` is given, it
    collects the base id of every scheduled arrival (retries collapse
    onto their original).
    """
    # Query id -> (replayed metrics, class name, run.meta record) while open.
    open_queries: dict[str, tuple[RunMetrics, str, dict[str, Any]]] = {}
    elapsed = 0.0
    for record in records:
        rtype = record.get("type")
        if rtype is None or rtype in FRAME_TYPES:
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
            replayed = RunMetrics()
            replayed.feed(record)
            class_name = record.get("query_class", record["algorithm"])
            open_queries[qid] = (replayed, class_name, record)
            metrics.query_started(
                qid, class_name, record["t"], record.get("degraded", False)
            )
        elif rtype == RUN_END:
            elapsed = max(elapsed, record["t"])
            if query is None:
                continue
            del open_queries[qid]
            replayed, class_name, meta = query
            stats = QueryStats.from_metrics(qid, class_name, meta["t"], replayed)
            metrics.query_finished(stats, meta.get("slo"))
        elif rtype in _EVENT_TALLIES:
            metrics.fleet_event(rtype, record)
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
