"""Run metrics: what one simulation reports, counted live or replayed.

One :class:`RunMetrics` per query is the only place its counters live.
The network and the monitor count into it as the query's row of the
traffic ledger (:meth:`repro.net.network.Network.stats_for`), the
query's runtime counts arrivals, relocations and planning into the same
object, and :meth:`RunMetrics.feed` counts a recorded trace into a fresh
one.  Because every trace event is emitted at the exact code point where
the corresponding counter increments, a replay matches the live run
field-for-field, floating-point accumulation order included.

This module is standard-library only, so :mod:`repro.net` and
:mod:`repro.monitor` can count into it without importing the engine.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Union

from repro.obs import events as ev
from repro.obs import exporters

#: Version tag :meth:`RunMetrics.summary` embeds.  Version 2 added the
#: trace-derived fields (transfers, local deliveries, passive
#: measurements, piggyback merges) and ``median_gap``; version 3 added
#: the resilience counters (retransmissions, dropped bytes, abandoned
#: messages, aborted relocations, host downtime, probe timeouts, planner
#: fallbacks).  Older payloads are still accepted by
#: :mod:`repro.experiments.persistence`.
SUMMARY_SCHEMA = 3


@dataclass(frozen=True)
class RelocationEvent:
    """One actor move: when, who, from where, to where, and the bytes
    of operator state it shipped."""

    time: float
    actor: str
    old_host: str
    new_host: str
    state_bytes: float = 0.0


@dataclass
class RunMetrics:
    """Measurements collected over one simulation run."""

    algorithm: str = ""
    num_servers: int = 0
    images: int = 0
    #: Client-side arrival time of each composed image, seconds.
    arrival_times: list[float] = field(default_factory=list)
    #: Operator relocations performed.
    relocations: int = 0
    #: Chronological record of every actor move.
    relocation_events: list[RelocationEvent] = field(default_factory=list)
    #: Planning rounds executed by the on-line controller.
    planner_runs: int = 0
    #: Placement change-overs actually installed (plans that differed).
    placements_installed: int = 0
    #: Barrier protocol executions and their total stall (server suspend) time.
    barrier_rounds: int = 0
    barrier_stall_seconds: float = 0.0
    #: Monitoring activity.
    probes_sent: int = 0
    probe_bytes: float = 0.0
    #: Messages forwarded because a destination operator had moved.
    forwarded_messages: int = 0
    bytes_on_wire: float = 0.0
    #: True if the run hit the simulation-time wall before finishing.
    truncated: bool = False
    #: Schema-2 trace-derived fields.
    transfers: int = 0
    local_deliveries: int = 0
    passive_measurements: int = 0
    piggyback_entries_merged: int = 0
    #: Schema-3 resilience counters (all zero unless a fault plan ran).
    retransmissions: int = 0
    dropped_bytes: float = 0.0
    abandoned_messages: int = 0
    aborted_relocations: int = 0
    host_downtime_seconds: float = 0.0
    probe_timeouts: int = 0
    planner_fallbacks: int = 0
    #: Planner-effort totals (diagnostic — excluded from :meth:`summary`
    #: like the kernel accounting below, so golden fingerprints stay
    #: invariant; the workload sinks surface them as fleet counters).
    #: Improvement rounds summed over every planner search of the run.
    planner_rounds: int = 0
    #: Single-move candidates evaluated, summed over every search.
    planner_candidates: int = 0
    #: Distinct links each search consulted, summed over searches (the
    #: per-search ``links`` field of ``planner.search`` events).
    planner_links_queried: int = 0
    #: Kernel accounting (diagnostic only — deliberately excluded from
    #: :meth:`summary` so the golden fingerprints stay invariant under
    #: kernel-scheduling changes; a forced-slow-path run differs from a
    #: fast-path run on exactly these fields and nothing else).
    #: Calendar events the kernel processed over the whole run.
    kernel_events: int = 0
    #: Transfers completed through a generator process — only under the
    #: reference schedule of ``tests/oracles/full_des.py``.
    des_transfers: int = 0

    @property
    def fluid_transfers(self) -> int:
        """Transfers completed without a generator process (one
        completion callback, or a callback chain under faults): every
        transfer, in the simulator proper."""
        return self.transfers - self.des_transfers

    def note_plan(self, result) -> None:
        """Accumulate one :class:`~repro.placement.base.PlanResult`'s effort.

        Called exactly where ``planner.search`` events are emitted, so
        :meth:`feed` rebuilds these totals bit-exactly from the trace.
        """
        self.planner_rounds += result.rounds
        self.planner_candidates += result.candidates_evaluated
        self.planner_links_queried += len(result.links_queried)

    @property
    def completion_time(self) -> float:
        """Time the last composed image reached the client."""
        return self.arrival_times[-1] if self.arrival_times else float("nan")

    @property
    def mean_interarrival(self) -> float:
        """Average seconds per delivered image (completion / count).

        This matches the paper's "average inter-arrival time for processed
        images at the client" (§5): the first image's wait counts.
        """
        if not self.arrival_times:
            return float("nan")
        return self.completion_time / len(self.arrival_times)

    @property
    def median_gap(self) -> float:
        """Median gap between consecutive arrivals (first gap from t=0)."""
        arrivals = self.arrival_times
        if not arrivals:
            return float("nan")
        return statistics.median(
            b - a for a, b in zip([0.0, *arrivals], arrivals)
        )

    def speedup_over(self, baseline: "RunMetrics") -> float:
        """How much faster this run finished than ``baseline``."""
        return baseline.completion_time / self.completion_time

    def summary(self) -> dict:
        """Plain-dict summary for serialization and tables.

        Carries ``"schema": 3`` — see :data:`SUMMARY_SCHEMA`.  Readers in
        :mod:`repro.experiments.persistence` accept every version.
        """
        return {
            "schema": SUMMARY_SCHEMA,
            "algorithm": self.algorithm,
            "num_servers": self.num_servers,
            "images": self.images,
            "completion_time": self.completion_time,
            "mean_interarrival": self.mean_interarrival,
            "median_gap": self.median_gap,
            "relocations": self.relocations,
            "planner_runs": self.planner_runs,
            "placements_installed": self.placements_installed,
            "barrier_rounds": self.barrier_rounds,
            "barrier_stall_seconds": self.barrier_stall_seconds,
            "probes_sent": self.probes_sent,
            "probe_bytes": self.probe_bytes,
            "forwarded_messages": self.forwarded_messages,
            "bytes_on_wire": self.bytes_on_wire,
            "truncated": self.truncated,
            "transfers": self.transfers,
            "local_deliveries": self.local_deliveries,
            "passive_measurements": self.passive_measurements,
            "piggyback_entries_merged": self.piggyback_entries_merged,
            "retransmissions": self.retransmissions,
            "dropped_bytes": self.dropped_bytes,
            "abandoned_messages": self.abandoned_messages,
            "aborted_relocations": self.aborted_relocations,
            "host_downtime_seconds": self.host_downtime_seconds,
            "probe_timeouts": self.probe_timeouts,
            "planner_fallbacks": self.planner_fallbacks,
        }

    # -- trace replay ---------------------------------------------------
    def feed(self, event: dict[str, Any]) -> None:
        """Count one trace record, as the live run counted its event.

        :data:`FEEDERS` is the only place a trace event turns into a run
        counter.  Floats are accumulated in event order with plain
        ``+=``, so the replayed counters are bit-identical to the run
        that produced the trace.  Frame records (header, footer, segment
        headers) and per-message deliveries count toward nothing.
        """
        feeder = FEEDERS.get(event.get("type"))
        if feeder is not None:
            feeder(self, event)

    @classmethod
    def from_trace(
        cls, source: "Union[str, Iterable[dict[str, Any]]]"
    ) -> "RunMetrics":
        """Rebuild the metrics by replaying a recorded trace.

        ``source`` is a JSONL trace path or the record list returned by
        :func:`repro.obs.read_jsonl`.  The result matches the run's live
        :class:`RunMetrics` in every field but ``kernel_events``, which
        the simulation driver sets.  Feed it one query's slice
        (:func:`repro.obs.summary.query_records`) of a concurrent
        workload's trace.
        """
        if isinstance(source, str):
            source = exporters.read_jsonl(source)
        metrics = cls()
        feeders = FEEDERS
        for record in source:
            feeder = feeders.get(record.get("type"))
            if feeder is not None:
                feeder(metrics, record)
        return metrics


# -- trace replay: one counting function per record type --------------------
def _count(attribute: str) -> Callable[[RunMetrics, dict[str, Any]], None]:
    """The feeder of a record type that adds one to ``attribute``."""

    def feeder(m: RunMetrics, event: dict[str, Any]) -> None:
        setattr(m, attribute, getattr(m, attribute) + 1)

    return feeder


def _message_send(m: RunMetrics, event: dict[str, Any]) -> None:
    if event.get("transport") == "local":
        m.local_deliveries += 1


def _link_transfer(m: RunMetrics, event: dict[str, Any]) -> None:
    m.transfers += 1
    m.bytes_on_wire += event["wire_bytes"]


def _monitor_piggyback(m: RunMetrics, event: dict[str, Any]) -> None:
    m.piggyback_entries_merged += event["merged"]


def _arrival(m: RunMetrics, event: dict[str, Any]) -> None:
    m.arrival_times.append(event["t"])


def _relocation(m: RunMetrics, event: dict[str, Any]) -> None:
    m.relocations += 1
    m.relocation_events.append(
        RelocationEvent(
            event["t"],
            event["actor"],
            event["old_host"],
            event["new_host"],
            event.get("state_bytes", 0.0),
        )
    )


def _planner_search(m: RunMetrics, event: dict[str, Any]) -> None:
    m.planner_rounds += event.get("rounds", 0)
    m.planner_candidates += event.get("candidates", 0)
    m.planner_links_queried += event.get("links", 0)


def _barrier_round(m: RunMetrics, event: dict[str, Any]) -> None:
    m.barrier_rounds += 1
    m.barrier_stall_seconds += event["dur"]


def _monitor_probe(m: RunMetrics, event: dict[str, Any]) -> None:
    m.probes_sent += 1
    m.probe_bytes += event["bytes"]


def _net_drop(m: RunMetrics, event: dict[str, Any]) -> None:
    m.dropped_bytes += event.get("bytes", 0.0)


def _fault_host_up(m: RunMetrics, event: dict[str, Any]) -> None:
    m.host_downtime_seconds += event.get("downtime", 0.0)


def _run_meta(m: RunMetrics, event: dict[str, Any]) -> None:
    m.algorithm = event["algorithm"]
    m.num_servers = event["num_servers"]
    m.images = event["images"]


def _run_end(m: RunMetrics, event: dict[str, Any]) -> None:
    m.truncated = event.get("truncated", False)


#: Record type -> the function that counts one such record into a
#: :class:`RunMetrics`.  Types absent here count toward nothing.
FEEDERS: dict[str, Callable[[RunMetrics, dict[str, Any]], None]] = {
    ev.MESSAGE_SEND: _message_send,
    ev.LINK_TRANSFER: _link_transfer,
    ev.MONITOR_PIGGYBACK: _monitor_piggyback,
    ev.MONITOR_PASSIVE: _count("passive_measurements"),
    ev.MESSAGE_FORWARD: _count("forwarded_messages"),
    ev.ARRIVAL: _arrival,
    ev.RELOCATION: _relocation,
    ev.PLANNER_RUN: _count("planner_runs"),
    ev.PLANNER_SEARCH: _planner_search,
    ev.PLACEMENT_INSTALL: _count("placements_installed"),
    ev.BARRIER_ROUND: _barrier_round,
    ev.MONITOR_PROBE: _monitor_probe,
    ev.NET_RETRANSMIT: _count("retransmissions"),
    ev.NET_DROP: _net_drop,
    ev.NET_ABANDON: _count("abandoned_messages"),
    ev.RELOCATION_ABORT: _count("aborted_relocations"),
    ev.FAULT_HOST_UP: _fault_host_up,
    ev.MONITOR_PROBE_TIMEOUT: _count("probe_timeouts"),
    ev.PLANNER_FALLBACK: _count("planner_fallbacks"),
    ev.RUN_META: _run_meta,
    ev.RUN_END: _run_end,
}
