"""One workload in one fresh interpreter: set up, then measure or trace.

Started by ``python -m bench`` as
``python -m bench.worker --workload W --seed N --seconds S --mode M
--spawned-at T --out DIR``; prints one JSON object on its last stdout
line.  The measuring loop is a single-threaded closed loop: one caller
issues ops back to back.  A :class:`~bench.calib.SpeedSampler` runs for
the worker's whole life, so set-up and every op are converted to
reference seconds with the host speed sampled while they ran.

Modes:

* ``setup`` — set up and report the set-up time only;
* ``run`` — the untraced measurement: whole cycles of the workload
  (see :mod:`bench.drive`) until ``--seconds`` have passed and the
  simulation window is complete;
* ``trace`` — an untraced pass over the first ops of the simulation
  window, then the same ops again with span wrappers on every layer seam.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from bench.calib import SpeedSampler, to_reference
from bench.metrics import percentile
from bench.spans import ROOT, SpanRecorder, median_overhead, write_chrome_trace

ROOT_DIR = Path(__file__).resolve().parents[1]

#: Ops whose full span records go to the Chrome trace.
KEPT_OPS = 2


def _import_drive():
    src = str(ROOT_DIR / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from bench import drive

    return drive


class Loop:
    """Runs ops of one workload and keeps what the metrics need."""

    def __init__(self, workload, sampler: SpeedSampler) -> None:
        self.workload = workload
        self.sampler = sampler
        self.wall_s: list[float] = []
        self.calib_s: list[float] = []
        self.ref_s: list[float] = []
        self.results: list = []
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, index: int, before=None, after=None):
        """Time one op; returns its :class:`~bench.drive.OpResult` or None.

        ``before(index)`` and ``after(wall_s)`` run right outside the
        timed call.
        """
        op = self.workload.prepare(index)
        if before is not None:
            before(index)
        error = None
        first = len(self.sampler.samples)
        start = time.perf_counter()
        try:
            output = op()
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        calib = self.sampler.calib_since(first)
        if after is not None:
            after(wall)
        self.wall_s.append(wall)
        self.calib_s.append(calib)
        self.ref_s.append(to_reference(wall, calib))
        result = None
        if error is None:
            try:
                result = self.workload.inspect(index, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"op {index} raised:\n{error}", file=sys.stderr)
        problem = error.strip().splitlines()[-1] if error else result.problem
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {index}: {problem}")
        self.results.append(result)
        return result


def _digest(results) -> str:
    text = "".join(r.digest if r is not None else "error" for r in results)
    return hashlib.sha256(text.encode()).hexdigest()


def measure(workload, sampler: SpeedSampler, seconds: float) -> dict:
    """The untraced run: whole cycles until ``seconds`` and the window are done."""
    loop = Loop(workload, sampler)
    start = time.perf_counter()
    index = 0
    while (
        index < workload.window
        or index % workload.cycle
        or time.perf_counter() - start < seconds
    ):
        loop.run_op(index)
        index += 1
    window = [r for r in loop.results[: workload.window] if r is not None]
    latencies = [x for r in window for x in r.latencies]
    scheduled = sum(r.scheduled for r in window)
    completed = sum(r.completed for r in window)
    wire = sum(r.wire_bytes for r in window)
    return {
        "ops": index,
        "failed": loop.failed,
        "problems": loop.problems,
        "checks": workload.check(window),
        "op_ref_s": loop.ref_s,
        "op_wall_s": loop.wall_s,
        "calib_us": statistics.median(loop.calib_s) * 1e6,
        "sim_latency_mean_s": statistics.fmean(latencies) if latencies else 0.0,
        "sim_latency_p90_s": percentile(latencies, 90) if latencies else 0.0,
        "sim_completed_ratio": completed / scheduled if scheduled else 0.0,
        "sim_wire_mb_per_query": wire / scheduled / 1e6 if scheduled else 0.0,
        "sim_queries": scheduled,
        "sim_digest": _digest(loop.results[: workload.window]),
    }


def trace(workload, drive, sampler: SpeedSampler, out: Path, count: int = 0) -> dict:
    """Untraced then traced pass over the first ``count`` ops (default:
    the workload's ``traced_ops``)."""
    count = count or workload.traced_ops
    first = len(sampler.samples)
    overhead_self, overhead_parent = median_overhead()
    to_ref = to_reference(1.0, sampler.calib_since(first))
    cost_self, cost_parent = overhead_self * to_ref, overhead_parent * to_ref

    untraced = Loop(workload, sampler)
    for index in range(count):
        untraced.run_op(index)

    recorder = SpanRecorder(drive.LAYERS)
    per_op: list[dict] = []
    traced = Loop(workload, sampler)
    originals = drive.seam_objects()
    seams = drive.InstalledSeams(recorder)
    try:
        for index in range(count):
            traced.run_op(
                index,
                before=lambda i: recorder.begin_op(i, keep=i < KEPT_OPS),
                after=lambda wall: per_op.append(recorder.end_op(wall)),
            )
    finally:
        seams.restore()
    restored = drive.seam_objects() == originals
    out.mkdir(parents=True, exist_ok=True)
    spans_path = out / f"{workload.name}.spans.json"
    write_chrome_trace(recorder, spans_path)

    # Per-op conversion to reference seconds, minus the wrappers' cost.
    layers = len(recorder.layers)
    self_ref = [0.0] * layers
    calls = [0] * layers
    counters: dict[str, float] = {}
    for stats, calib in zip(per_op, traced.calib_s):
        factor = to_reference(1.0, calib)
        for layer in range(layers):
            own = stats["self_s"][layer] * factor
            own -= stats["child_calls"][layer] * cost_parent
            if layer != ROOT:
                own -= stats["calls"][layer] * cost_self
            self_ref[layer] += max(own, 0.0)
            calls[layer] += stats["calls"][layer]
        for key, value in stats["counters"].items():
            if key == "monitor.decode_s":
                value *= factor
            counters[key] = counters.get(key, 0) + value
    counters["monitor.decode_s"] = max(
        counters.get("monitor.decode_s", 0.0)
        - counters.get("monitor.decode_calls", 0) * cost_self,
        0.0,
    )
    counts: dict[str, float] = {}
    for result in traced.results:
        if result is not None:
            for key, value in result.counts.items():
                counts[key] = counts.get(key, 0) + value

    digests_match = [r.digest if r else None for r in untraced.results] == [
        r.digest if r else None for r in traced.results
    ]
    return {
        "ops": count,
        "attempted": 2 * count,
        "failed": untraced.failed + traced.failed,
        "problems": untraced.problems + traced.problems,
        "checks": {"seams_restored": restored, "traced_digest_matches": digests_match},
        "layers": list(recorder.layers),
        "self_ref_s": self_ref,
        "calls": calls,
        "counters": counters,
        "counts": counts,
        "untraced_ref_s": sum(untraced.ref_s),
        "traced_ref_s": sum(traced.ref_s),
        "calib_us": statistics.median(untraced.calib_s + traced.calib_s) * 1e6,
        "overhead_ns": [overhead_self * 1e9, overhead_parent * 1e9],
        "spans_file": spans_path.name,
        "sim_digest": _digest(untraced.results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with SpeedSampler() as sampler:
        drive = _import_drive()
        scratch = args.out / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        workload = drive.WORKLOADS[args.workload](args.seed, scratch)
        workload.prepare(0)()
        setup_wall = time.monotonic() - args.spawned_at
        report = {
            "raw_setup_s": setup_wall,
            "setup_s": to_reference(setup_wall, sampler.calib_since(0)),
        }
        if args.mode == "run":
            report.update(measure(workload, sampler, args.seconds))
        elif args.mode == "trace":
            report.update(trace(workload, drive, sampler, args.out))
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
