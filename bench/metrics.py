"""Named metrics from the workers' raw reports.

:data:`END_TO_END` and :func:`layer_metrics` are the two metric sets
``BENCHMARK.json`` declares (the self-tests keep them in step).  Host
times are reference seconds (:mod:`bench.calib`); ``sim_*`` values are
simulated quantities, identical for a given seed unless the simulated
behaviour changes.
"""

from __future__ import annotations

import math
import statistics

#: name -> unit of every end-to-end metric, measured on the untraced run.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
    "sim_latency_mean_s": "sim_s",
    "sim_completed_ratio": "ratio",
    "sim_wire_mb_per_query": "MB",
}


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(run: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one untraced run plus its set-up samples."""
    op_s = run["op_ref_s"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(op_s) / sum(op_s),
        "op_s_p50": percentile(op_s, 50),
        "op_s_p90": percentile(op_s, 90),
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_latency_mean_s": run["sim_latency_mean_s"],
        "sim_completed_ratio": run["sim_completed_ratio"],
        "sim_wire_mb_per_query": run["sim_wire_mb_per_query"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def informational(run: dict, setup_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Raw wall-clock twins and counts: printed, never gated."""
    walls = run["op_wall_s"]
    return {
        "raw_setup_s": (statistics.median(setup_walls), "s"),
        "raw_ops_per_s": (len(walls) / sum(walls), "1/s"),
        "raw_op_s_p50": (percentile(walls, 50), "s"),
        "raw_op_s_p90": (percentile(walls, 90), "s"),
        "error_rate": (run["failed"] / run["ops"], "ratio"),
        "ops": (run["ops"], "count"),
        "sim_latency_p90_s": (run["sim_latency_p90_s"], "sim_s"),
        "sim_queries": (run["sim_queries"], "count"),
        "calib_us": (run["calib_us"], "us"),
    }


def layer_metrics(trace: dict, layers: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, per op of that pass."""
    ops = trace["ops"]
    index = {name: i for i, name in enumerate(trace["layers"])}
    self_s = trace["self_ref_s"]
    attributed = sum(self_s[index[name]] for name in layers)
    counters, counts = trace["counters"], trace["counts"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in layers:
        own = self_s[index[name]]
        metrics[f"{name}.self_ms_per_op"] = (own * 1e3 / ops, "ms")
        metrics[f"{name}.share"] = (_ratio(own, attributed), "ratio")
        metrics[f"{name}.calls_per_op"] = (trace["calls"][index[name]] / ops, "count")

    def per_op(value: float) -> float:
        return value / ops

    events = counters.get("sim.events", 0)
    sim_s = self_s[index["sim"]]
    planning_ms = (self_s[index["placement"]] + self_s[index["dataflow"]]) * 1e3
    fluid = counts.get("fluid_transfers", 0)
    transfers = fluid + counts.get("des_transfers", 0)
    grants, denies = counts.get("grants", 0), counts.get("denies", 0)
    metrics.update(
        {
            "sim.events_per_op": (per_op(events), "count"),
            "sim.us_per_event": (_ratio(sim_s * 1e6, events), "us"),
            "net.transfers_per_op": (per_op(counts.get("transfers", 0)), "count"),
            "net.fluid_share": (_ratio(fluid, transfers), "ratio"),
            "net.retransmissions_per_op": (
                per_op(counts.get("retransmissions", 0)),
                "count",
            ),
            "monitor.decode_ms_per_op": (
                per_op(counters.get("monitor.decode_s", 0.0) * 1e3),
                "ms",
            ),
            "monitor.decode_merge_ratio": (
                _ratio(
                    counters.get("monitor.merged", 0),
                    counters.get("monitor.offered", 0),
                ),
                "ratio",
            ),
            "monitor.probes_per_op": (per_op(counts.get("probes", 0)), "count"),
            "engine.resumes_per_op": (per_op(trace["calls"][index["engine"]]), "count"),
            "engine.relocations_per_op": (
                per_op(counts.get("relocations", 0)),
                "count",
            ),
            "placement.candidates_per_op": (
                per_op(counts.get("planner_candidates", 0)),
                "count",
            ),
            "placement.candidates_per_ms": (
                _ratio(counts.get("planner_candidates", 0), planning_ms),
                "1/ms",
            ),
            "placement.plan_change_ratio": (
                _ratio(
                    counts.get("placements_installed", 0),
                    counts.get("planner_runs", 0),
                ),
                "ratio",
            ),
            "fleet.grant_rate": (_ratio(grants, grants + denies), "ratio"),
            "obs.records_per_op": (per_op(counts.get("obs_records", 0)), "count"),
            "obs.jsonl_kb_per_op": (
                per_op(counts.get("obs_jsonl_bytes", 0) / 1024),
                "KiB",
            ),
            "bench.trace_overhead": (
                _ratio(trace["traced_ref_s"], trace["untraced_ref_s"]),
                "ratio",
            ),
            "bench.unattributed_share": (
                _ratio(self_s[index["(root)"]], self_s[index["(root)"]] + attributed),
                "ratio",
            ),
            "bench.calib_us": (trace["calib_us"], "us"),
        }
    )
    return metrics
