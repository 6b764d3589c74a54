"""Trace analysis: metric replay and human-readable summaries.

:class:`RunReplay` is the one place a trace event turns into a run
counter.  Because every trace event is emitted at the exact code point
where the corresponding counter increments, the replayed counters match
the live ``RunMetrics`` *exactly* (including floating-point
accumulation order).  Three readers feed it:

* :meth:`repro.engine.metrics.RunMetrics.from_trace` rebuilds one run's
  metrics independently of the live run;
* ``repro trace`` renders :class:`TraceSummary` — the replayed counters
  plus the relocation timeline, per-link traffic, barrier-stall
  breakdown, planner and monitor activity of a recorded run;
* :func:`repro.workload.sink.fleet_from_trace` replays each query of a
  concurrent workload.

To keep :mod:`repro.obs` importable without the engine, everything here
returns plain dicts/dataclasses; the engine does the final conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs import events as ev


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

    Feeding the slice to :meth:`repro.engine.metrics.RunMetrics.from_trace`
    rebuilds that query's ``RunMetrics`` bit-exactly.
    """
    return [
        record
        for record in records
        if record.get("query_id", query_id) == query_id
    ]


class RunReplay:
    """One run's :class:`~repro.engine.metrics.RunMetrics` counters,
    replayed from its trace one record at a time.

    This is the only place a trace event turns into a run counter.
    :meth:`repro.engine.metrics.RunMetrics.from_trace` feeds it a whole
    trace, :func:`summarize_records` feeds it during its own pass, and
    :func:`repro.workload.sink.fleet_from_trace` keeps one per open
    query.  :attr:`totals` is keyed by ``RunMetrics`` field name, except
    that ``relocation_events`` holds ``(time, actor, old_host, new_host,
    state_bytes)`` tuples.  Floats are accumulated in event order with
    plain ``+=``, mirroring how the live counters accrue, so the totals
    are bit-identical to the run that produced the trace.  Frame records
    (header, footer, segment headers) count toward nothing.
    """

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: dict[str, Any] = {
            "algorithm": "",
            "num_servers": 0,
            "images": 0,
            "arrival_times": [],
            "relocations": 0,
            "relocation_events": [],
            "planner_runs": 0,
            "placements_installed": 0,
            "barrier_rounds": 0,
            "barrier_stall_seconds": 0.0,
            "probes_sent": 0,
            "probe_bytes": 0.0,
            "forwarded_messages": 0,
            "bytes_on_wire": 0.0,
            "truncated": False,
            "transfers": 0,
            "local_deliveries": 0,
            "passive_measurements": 0,
            "piggyback_entries_merged": 0,
            "retransmissions": 0,
            "dropped_bytes": 0.0,
            "abandoned_messages": 0,
            "aborted_relocations": 0,
            "host_downtime_seconds": 0.0,
            "probe_timeouts": 0,
            "planner_fallbacks": 0,
            "planner_rounds": 0,
            "planner_candidates": 0,
            "planner_links_queried": 0,
        }

    def feed(self, event: dict[str, Any]) -> None:
        """Count one trace record."""
        agg = self.totals
        etype = event.get("type")
        # Most frequent types first.
        if etype == ev.MESSAGE_SEND:
            if event.get("transport") == "local":
                agg["local_deliveries"] += 1
        elif etype == ev.LINK_TRANSFER:
            agg["transfers"] += 1
            agg["bytes_on_wire"] += event["wire_bytes"]
        elif etype == ev.MONITOR_PIGGYBACK:
            agg["piggyback_entries_merged"] += event["merged"]
        elif etype == ev.MONITOR_PASSIVE:
            agg["passive_measurements"] += 1
        elif etype == ev.MESSAGE_FORWARD:
            agg["forwarded_messages"] += 1
        elif etype == ev.ARRIVAL:
            agg["arrival_times"].append(event["t"])
        elif etype == ev.RELOCATION:
            agg["relocations"] += 1
            agg["relocation_events"].append(
                (
                    event["t"],
                    event["actor"],
                    event["old_host"],
                    event["new_host"],
                    event.get("state_bytes", 0.0),
                )
            )
        elif etype == ev.PLANNER_RUN:
            agg["planner_runs"] += 1
        elif etype == ev.PLANNER_SEARCH:
            agg["planner_rounds"] += event.get("rounds", 0)
            agg["planner_candidates"] += event.get("candidates", 0)
            agg["planner_links_queried"] += event.get("links", 0)
        elif etype == ev.PLACEMENT_INSTALL:
            agg["placements_installed"] += 1
        elif etype == ev.BARRIER_ROUND:
            agg["barrier_rounds"] += 1
            agg["barrier_stall_seconds"] += event["dur"]
        elif etype == ev.MONITOR_PROBE:
            agg["probes_sent"] += 1
            agg["probe_bytes"] += event["bytes"]
        elif etype == ev.NET_RETRANSMIT:
            agg["retransmissions"] += 1
        elif etype == ev.NET_DROP:
            agg["dropped_bytes"] += event.get("bytes", 0.0)
        elif etype == ev.NET_ABANDON:
            agg["abandoned_messages"] += 1
        elif etype == ev.RELOCATION_ABORT:
            agg["aborted_relocations"] += 1
        elif etype == ev.FAULT_HOST_UP:
            agg["host_downtime_seconds"] += event.get("downtime", 0.0)
        elif etype == ev.MONITOR_PROBE_TIMEOUT:
            agg["probe_timeouts"] += 1
        elif etype == ev.PLANNER_FALLBACK:
            agg["planner_fallbacks"] += 1
        elif etype == ev.RUN_META:
            agg["algorithm"] = event["algorithm"]
            agg["num_servers"] = event["num_servers"]
            agg["images"] = event["images"]
        elif etype == ev.RUN_END:
            agg["truncated"] = event.get("truncated", False)


# -- human-readable summary -------------------------------------------------
@dataclass
class TraceSummary:
    """What ``repro trace`` reports about one recorded run.

    The run counters are :attr:`totals`, a :class:`RunReplay` fed the
    same records; the fields here are the views ``RunMetrics`` lacks.
    A concurrent workload's trace holds one ``run.meta`` and one
    ``run.end`` per query; :attr:`algorithms`, :attr:`truncated` and
    :attr:`completion_time` then cover every query.
    """

    meta: dict[str, Any] = field(default_factory=dict)
    #: algorithm -> ``run.meta`` records naming it (one per query).
    algorithms: dict[str, int] = field(default_factory=dict)
    #: True when any ``run.end`` reports a truncated run.
    truncated: bool = False
    #: :attr:`RunReplay.totals` over every record of the trace.
    totals: dict[str, Any] = field(default_factory=lambda: RunReplay().totals)
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

    @property
    def relocations(self) -> list[tuple[float, str, str, str, float]]:
        """(time, actor, old_host, new_host, state_bytes) in order."""
        return self.totals["relocation_events"]

    @property
    def planner_searches(self) -> int:
        return self.event_histogram.get(ev.PLANNER_SEARCH, 0)

    @property
    def runs(self) -> int:
        """``run.meta`` records in the stream: one per query."""
        return sum(self.algorithms.values())


def summarize_records(records: Iterable[dict[str, Any]]) -> TraceSummary:
    """Digest trace records into a :class:`TraceSummary` in one pass."""
    replay = RunReplay()
    summary = TraceSummary(totals=replay.totals)
    feed = replay.feed
    histogram = summary.event_histogram
    ended = False
    latest_end = float("nan")
    for record in records:
        feed(record)
        etype = record.get("type")
        if etype is not None and not etype.startswith("trace."):
            histogram[etype] = histogram.get(etype, 0) + 1
        if etype == ev.LINK_TRANSFER:
            key = (record["src_host"], record["dst_host"])
            entry = summary.link_traffic.setdefault(key, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += record["wire_bytes"]
            entry[2] += record.get("dur", 0.0)
        elif etype == ev.MONITOR_ESTIMATE:
            quality = record.get("quality", "?")
            summary.estimate_quality[quality] = (
                summary.estimate_quality.get(quality, 0) + 1
            )
        elif etype == ev.ARRIVAL:
            summary.completion_time = record["t"]
        elif etype == ev.BARRIER_ROUND:
            summary.barrier_rounds.append(
                (record["t"], record["dur"], record.get("plan_seq", -1))
            )
        elif etype in (ev.FAULT_LINK_DOWN, ev.FAULT_LINK_UP):
            summary.fault_timeline.append(
                (record["t"], etype, f"{record.get('a')}~{record.get('b')}")
            )
        elif etype in (ev.FAULT_HOST_DOWN, ev.FAULT_HOST_UP):
            summary.fault_timeline.append(
                (record["t"], etype, str(record.get("host")))
            )
        elif etype == ev.RUN_META:
            meta = {k: v for k, v in record.items() if k not in ("type", "t")}
            summary.meta.update(meta)
            algorithm = record["algorithm"]
            summary.algorithms[algorithm] = (
                summary.algorithms.get(algorithm, 0) + 1
            )
        elif etype == ev.RUN_END:
            completion = record.get("completion_time", summary.completion_time)
            if math.isnan(latest_end) or completion > latest_end:
                latest_end = completion
            ended = True
            if record.get("truncated", False):
                summary.truncated = True
        elif etype == "trace.header":
            summary.meta = dict(record.get("meta", {}))
        elif etype == "trace.footer":
            summary.counters = dict(record.get("counters", {}))
    if ended:
        summary.completion_time = latest_end
    return summary


def format_trace_summary(summary: TraceSummary, max_rows: int = 20) -> str:
    """Render a :class:`TraceSummary` as the ``repro trace`` report."""
    lines: list[str] = []
    totals = summary.totals
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
        f"arrivals: {len(totals['arrival_times'])}"
        f" (completion {summary.completion_time:.1f}s"
        f"{', TRUNCATED' if summary.truncated else ''})"
    )

    lines.append("")
    lines.append(f"relocation timeline ({len(summary.relocations)} moves):")
    shown = summary.relocations[:max_rows]
    for t, actor, old, new, state_bytes in shown:
        lines.append(
            f"  {t:10.1f}s  {actor:<10} {old} -> {new}"
            f"  ({state_bytes / 1024.0:.0f} KiB state)"
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
        f" {totals['barrier_stall_seconds']:.2f}s total stall"
    )
    for start, dur, plan_seq in summary.barrier_rounds[:max_rows]:
        lines.append(f"  {start:10.1f}s  plan #{plan_seq}: {dur:.2f}s stall")
    if len(summary.barrier_rounds) > max_rows:
        lines.append(
            f"  ... {len(summary.barrier_rounds) - max_rows} more"
        )

    lines.append("")
    lines.append(
        f"planner: {totals['planner_runs']} runs,"
        f" {summary.planner_searches} searches,"
        f" {totals['planner_candidates']} candidates evaluated"
    )
    quality = ", ".join(
        f"{k}={v}" for k, v in sorted(summary.estimate_quality.items())
    )
    lines.append(
        f"monitor: {totals['probes_sent']} probes,"
        f" estimates [{quality or 'none'}]"
    )
    lines.append(f"forwarded messages: {totals['forwarded_messages']}")

    faulted = summary.fault_timeline or any(
        totals[key]
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
            f" {totals['retransmissions']} retransmissions,"
            f" {totals['dropped_bytes'] / 1024.0:.1f} KiB dropped,"
            f" {totals['abandoned_messages']} abandoned,"
            f" {totals['aborted_relocations']} aborted relocations,"
            f" {totals['probe_timeouts']} probe timeouts,"
            f" {totals['planner_fallbacks']} planner fallbacks,"
            f" {totals['host_downtime_seconds']:.1f}s host downtime"
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
