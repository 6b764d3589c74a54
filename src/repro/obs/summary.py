"""Trace analysis: one query's slice and human-readable summaries.

:meth:`repro.obs.metrics.RunMetrics.feed` is the one place a trace event
turns into a run counter.  ``repro trace`` renders :class:`TraceSummary`
— the replayed :class:`~repro.obs.metrics.RunMetrics` plus the
relocation timeline, per-link traffic, barrier-stall breakdown, planner
and monitor activity of a recorded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.obs import events as ev
from repro.obs.metrics import FEEDERS, RelocationEvent, RunMetrics


def query_records(
    records: Iterable[dict[str, Any]], query_id: str
) -> list[dict[str, Any]]:
    """One query's slice of a concurrent-workload trace.

    Keeps every record that is tagged with ``query_id`` *or* carries no
    ``query_id`` at all.  Untagged records are shared context — frame
    records, monitoring estimates, fault-timeline boundaries — that each
    query's replay must still see (e.g. ``fault.host_up`` increments
    ``host_downtime_seconds`` for every query of the run, exactly as the
    live :meth:`~repro.engine.runtime.Runtime.finalize_metrics` copies
    the shared injector's downtime into every query's metrics).

    Feeding the slice to :meth:`repro.obs.metrics.RunMetrics.from_trace`
    rebuilds that query's ``RunMetrics`` bit-exactly.
    """
    return [
        record
        for record in records
        if record.get("query_id", query_id) == query_id
    ]


# -- human-readable summary -------------------------------------------------
@dataclass
class TraceSummary:
    """What ``repro trace`` reports about one recorded run.

    The run counters are :attr:`metrics`, fed the same records; the
    fields here are the views ``RunMetrics`` lacks.
    A concurrent workload's trace holds one ``run.meta`` and one
    ``run.end`` per query; :attr:`algorithms`, :attr:`truncated` and
    :attr:`completion_time` then cover every query.
    """

    meta: dict[str, Any] = field(default_factory=dict)
    #: algorithm -> ``run.meta`` records naming it (one per query).
    algorithms: dict[str, int] = field(default_factory=dict)
    #: True when any ``run.end`` reports a truncated run.
    truncated: bool = False
    #: :class:`RunMetrics` fed every record of the trace.
    metrics: RunMetrics = field(default_factory=RunMetrics)
    #: (src_host, dst_host) -> [transfers, wire_bytes, busy_seconds].
    link_traffic: dict[tuple[str, str], list[float]] = field(
        default_factory=dict
    )
    #: (start, dur, plan_seq) per barrier round.
    barrier_rounds: list[tuple[float, float, int]] = field(
        default_factory=list
    )
    #: estimate quality -> count ("fresh"/"stale"/"default").
    estimate_quality: dict[str, int] = field(default_factory=dict)
    #: The latest ``run.end`` completion; without one, the last arrival.
    completion_time: float = float("nan")
    counters: dict[str, float] = field(default_factory=dict)
    #: (time, event_type, detail) fault timeline in order.
    fault_timeline: list[tuple[float, str, str]] = field(default_factory=list)
    #: Trace record type -> count over the whole stream (header/footer
    #: excluded).  What the run actually spent its events on.
    event_histogram: dict[str, int] = field(default_factory=dict)
    #: The latest ``run.end`` completion seen while summarizing (None
    #: before the first ``run.end``).
    _latest_end: Optional[float] = field(
        default=None, repr=False, compare=False
    )

    @property
    def relocations(self) -> list[RelocationEvent]:
        """Every actor move, in order."""
        return self.metrics.relocation_events

    @property
    def planner_searches(self) -> int:
        return self.event_histogram.get(ev.PLANNER_SEARCH, 0)

    @property
    def runs(self) -> int:
        """``run.meta`` records in the stream: one per query."""
        return sum(self.algorithms.values())


def summarize_records(records: Iterable[dict[str, Any]]) -> TraceSummary:
    """Digest trace records into a :class:`TraceSummary` in one pass."""
    summary = TraceSummary()
    metrics = summary.metrics
    histogram = summary.event_histogram
    handlers = _HANDLERS
    for record in records:
        etype = record.get("type")
        histogram[etype] = histogram.get(etype, 0) + 1
        entry = handlers.get(etype)
        if entry is not None:
            feeder, note = entry
            if feeder is not None:
                feeder(metrics, record)
            if note is not None:
                note(summary, record)
    # Frame records and typeless ones are not what the run spent its
    # events on.
    for etype in [t for t in histogram if t is None or t.startswith("trace.")]:
        del histogram[etype]
    if summary._latest_end is not None:
        summary.completion_time = summary._latest_end
    return summary


# -- the summary's own views, one function per record type ----------------
def _link_transfer(summary: TraceSummary, record: dict[str, Any]) -> None:
    key = (record["src_host"], record["dst_host"])
    entry = summary.link_traffic.setdefault(key, [0, 0.0, 0.0])
    entry[0] += 1
    entry[1] += record["wire_bytes"]
    entry[2] += record.get("dur", 0.0)


def _monitor_estimate(summary: TraceSummary, record: dict[str, Any]) -> None:
    quality = record.get("quality", "?")
    summary.estimate_quality[quality] = (
        summary.estimate_quality.get(quality, 0) + 1
    )


def _arrival(summary: TraceSummary, record: dict[str, Any]) -> None:
    summary.completion_time = record["t"]


def _barrier_round(summary: TraceSummary, record: dict[str, Any]) -> None:
    summary.barrier_rounds.append(
        (record["t"], record["dur"], record.get("plan_seq", -1))
    )


def _link_fault(summary: TraceSummary, record: dict[str, Any]) -> None:
    summary.fault_timeline.append(
        (record["t"], record["type"], f"{record.get('a')}~{record.get('b')}")
    )


def _host_fault(summary: TraceSummary, record: dict[str, Any]) -> None:
    summary.fault_timeline.append(
        (record["t"], record["type"], str(record.get("host")))
    )


def _run_meta(summary: TraceSummary, record: dict[str, Any]) -> None:
    meta = {k: v for k, v in record.items() if k not in ("type", "t")}
    summary.meta.update(meta)
    algorithm = record["algorithm"]
    summary.algorithms[algorithm] = summary.algorithms.get(algorithm, 0) + 1


def _run_end(summary: TraceSummary, record: dict[str, Any]) -> None:
    completion = record.get("completion_time", summary.completion_time)
    latest = summary._latest_end
    if latest is None or math.isnan(latest) or completion > latest:
        summary._latest_end = completion
    if record.get("truncated", False):
        summary.truncated = True


def _header(summary: TraceSummary, record: dict[str, Any]) -> None:
    summary.meta = dict(record.get("meta", {}))


def _footer(summary: TraceSummary, record: dict[str, Any]) -> None:
    summary.counters = dict(record.get("counters", {}))


_NOTES = {
    ev.LINK_TRANSFER: _link_transfer,
    ev.MONITOR_ESTIMATE: _monitor_estimate,
    ev.ARRIVAL: _arrival,
    ev.BARRIER_ROUND: _barrier_round,
    ev.FAULT_LINK_DOWN: _link_fault,
    ev.FAULT_LINK_UP: _link_fault,
    ev.FAULT_HOST_DOWN: _host_fault,
    ev.FAULT_HOST_UP: _host_fault,
    ev.RUN_META: _run_meta,
    ev.RUN_END: _run_end,
    "trace.header": _header,
    "trace.footer": _footer,
}

#: Record type -> (its :data:`~repro.obs.metrics.FEEDERS` function, its
#: :class:`TraceSummary` view), either None: one lookup per record.
_HANDLERS = {
    etype: (FEEDERS.get(etype), _NOTES.get(etype))
    for etype in (*FEEDERS, *_NOTES)
}


def format_trace_summary(summary: TraceSummary, max_rows: int = 20) -> str:
    """Render a :class:`TraceSummary` as the ``repro trace`` report."""
    lines: list[str] = []
    metrics = summary.metrics
    meta = summary.meta
    if summary.runs > 1:
        mix = ", ".join(
            f"{name}={count}" for name, count in sorted(summary.algorithms.items())
        )
        lines.append(f"run: {summary.runs} queries ({mix})")
    elif meta:
        head = ", ".join(
            f"{k}={meta[k]}"
            for k in ("algorithm", "num_servers", "images", "tree_shape")
            if k in meta
        )
        lines.append(f"run: {head}" if head else f"run: {meta}")
    lines.append(
        f"arrivals: {len(metrics.arrival_times)}"
        f" (completion {summary.completion_time:.1f}s"
        f"{', TRUNCATED' if summary.truncated else ''})"
    )

    lines.append("")
    lines.append(f"relocation timeline ({len(summary.relocations)} moves):")
    shown = summary.relocations[:max_rows]
    for move in shown:
        lines.append(
            f"  {move.time:10.1f}s  {move.actor:<10}"
            f" {move.old_host} -> {move.new_host}"
            f"  ({move.state_bytes / 1024.0:.0f} KiB state)"
        )
    if len(summary.relocations) > len(shown):
        lines.append(f"  ... {len(summary.relocations) - len(shown)} more")
    if not summary.relocations:
        lines.append("  (none)")

    lines.append("")
    lines.append(f"per-link traffic ({len(summary.link_traffic)} links):")
    ranked = sorted(
        summary.link_traffic.items(), key=lambda kv: kv[1][1], reverse=True
    )
    for (src, dst), (count, nbytes, busy) in ranked[:max_rows]:
        lines.append(
            f"  {src} -> {dst}: {int(count)} transfers,"
            f" {nbytes / (1024.0 * 1024.0):.2f} MiB, {busy:.1f}s busy"
        )
    if len(ranked) > max_rows:
        lines.append(f"  ... {len(ranked) - max_rows} more")
    if not ranked:
        lines.append("  (none)")

    lines.append("")
    lines.append(
        f"barrier: {len(summary.barrier_rounds)} rounds,"
        f" {metrics.barrier_stall_seconds:.2f}s total stall"
    )
    for start, dur, plan_seq in summary.barrier_rounds[:max_rows]:
        lines.append(f"  {start:10.1f}s  plan #{plan_seq}: {dur:.2f}s stall")
    if len(summary.barrier_rounds) > max_rows:
        lines.append(
            f"  ... {len(summary.barrier_rounds) - max_rows} more"
        )

    lines.append("")
    lines.append(
        f"planner: {metrics.planner_runs} runs,"
        f" {summary.planner_searches} searches,"
        f" {metrics.planner_candidates} candidates evaluated"
    )
    quality = ", ".join(
        f"{k}={v}" for k, v in sorted(summary.estimate_quality.items())
    )
    lines.append(
        f"monitor: {metrics.probes_sent} probes,"
        f" estimates [{quality or 'none'}]"
    )
    lines.append(f"forwarded messages: {metrics.forwarded_messages}")

    faulted = summary.fault_timeline or any(
        getattr(metrics, key)
        for key in (
            "retransmissions",
            "dropped_bytes",
            "abandoned_messages",
            "aborted_relocations",
            "probe_timeouts",
            "planner_fallbacks",
        )
    )
    if faulted:
        lines.append("")
        lines.append(
            "resilience:"
            f" {metrics.retransmissions} retransmissions,"
            f" {metrics.dropped_bytes / 1024.0:.1f} KiB dropped,"
            f" {metrics.abandoned_messages} abandoned,"
            f" {metrics.aborted_relocations} aborted relocations,"
            f" {metrics.probe_timeouts} probe timeouts,"
            f" {metrics.planner_fallbacks} planner fallbacks,"
            f" {metrics.host_downtime_seconds:.1f}s host downtime"
        )
        if summary.fault_timeline:
            lines.append(
                f"fault timeline ({len(summary.fault_timeline)} boundaries):"
            )
            for t, etype, detail in summary.fault_timeline[:max_rows]:
                lines.append(f"  {t:10.1f}s  {etype:<16} {detail}")
            if len(summary.fault_timeline) > max_rows:
                lines.append(
                    f"  ... {len(summary.fault_timeline) - max_rows} more"
                )

    if summary.event_histogram:
        total = sum(summary.event_histogram.values())
        lines.append("")
        lines.append(
            f"trace event histogram ({total} records,"
            f" {len(summary.event_histogram)} types):"
        )
        ranked_types = sorted(
            summary.event_histogram.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for etype, count in ranked_types[:max_rows]:
            lines.append(f"  {etype:<24} {count}")
        if len(ranked_types) > max_rows:
            lines.append(f"  ... {len(ranked_types) - max_rows} more types")

    if summary.counters:
        sim_events = summary.counters.get("sim.events")
        if sim_events is not None:
            lines.append("")
            lines.append(f"kernel events processed: {int(sim_events)}")
            per_type = sorted(
                (key, value)
                for key, value in summary.counters.items()
                if key.startswith("sim.events.")
            )
            for key, value in per_type:
                lines.append(
                    f"  {key.removeprefix('sim.events.'):<24} {int(value)}"
                )
    return "\n".join(lines)
