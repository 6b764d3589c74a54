"""Run metrics: what one simulation reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Union

import numpy as np

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
    """One actor move: when, who, from where, to where."""

    time: float
    actor: str
    old_host: str
    new_host: str


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
    #: Transfers completed without a generator process (one completion
    #: callback, or a callback chain under faults): every transfer, in
    #: the simulator proper.  Derived as ``transfers - des_transfers``
    #: when the run finalizes; the network keeps no counter of its own.
    fluid_transfers: int = 0
    #: Transfers completed through a generator process — only under the
    #: reference schedule of ``tests/oracles/full_des.py``.
    des_transfers: int = 0

    def note_plan(self, result) -> None:
        """Accumulate one :class:`~repro.placement.base.PlanResult`'s effort.

        Called exactly where ``planner.search`` events are emitted, so
        trace replay (:class:`repro.obs.summary.RunReplay`)
        rebuilds these totals bit-exactly from the event stream.
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
        if not self.arrival_times:
            return float("nan")
        gaps = np.diff([0.0, *self.arrival_times])
        return float(np.median(gaps))

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

    @classmethod
    def from_trace(
        cls, source: "Union[str, Iterable[dict[str, Any]]]"
    ) -> "RunMetrics":
        """Rebuild the aggregate metrics by replaying a recorded trace.

        ``source`` is a JSONL trace path or the record list returned by
        :func:`repro.obs.read_jsonl`.  Because each trace event is emitted
        exactly where the live counter increments, the replayed metrics
        match the run's :class:`RunMetrics` field-for-field (probe counts
        excepted only if monitoring was never enabled).  Used in tests as
        a cross-check of the aggregates against the event stream.
        """
        # Imported lazily: repro.obs must stay importable without the
        # engine, and vice versa.
        from repro.obs.exporters import read_jsonl
        from repro.obs.summary import RunReplay

        replay = RunReplay()
        feed = replay.feed
        for record in read_jsonl(source) if isinstance(source, str) else source:
            feed(record)
        return cls.from_replay(replay)

    @classmethod
    def from_replay(cls, replay) -> "RunMetrics":
        """The metrics a :class:`repro.obs.summary.RunReplay` has counted."""
        totals = dict(replay.totals)
        events = [
            RelocationEvent(time, actor, old_host, new_host)
            for time, actor, old_host, new_host, _ in totals.pop(
                "relocation_events"
            )
        ]
        return cls(relocation_events=events, **totals)
