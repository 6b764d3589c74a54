"""``python -m bench``: the repository benchmark.

Usage::

    python -m bench [--workload NAME|all] [--seed N] [--seconds S]
                    [--trace 0|1] [--out DIR]

A benchmark runner calls it as ``--workload W --seed N --seconds S
--trace 0|1``, with ``S`` the ``run_seconds`` of ``BENCHMARK.json`` (also
the default here) and one call per pass, because it gates the two
passes' metric sets separately.  Each workload runs in fresh worker
interpreters (:mod:`bench.worker`): with ``--trace 0`` one measuring run
plus two set-up-only starts, whose median is ``setup_s``; with
``--trace 1`` one traced run that splits op time by layer.  Without
``--trace`` both happen, untraced first.  Every
metric is printed by name with its unit, the correctness checks decide
``correct``, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``results.json``
and each workload's Chrome span trace go to ``--out``.

Exit status: 0 when every check passed, 1 when a check failed, 2 when a
worker could not run at all (for example without the ``src/`` tree).
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from bench import metrics

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper-sweep", "replan-fleet", "chaos-fleet", "traced-replay")
#: Timed seconds of one measuring run, as ``BENCHMARK.json`` declares.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
#: Interpreter starts whose set-up times make ``setup_s`` (the measuring
#: run's own start included).
SETUP_STARTS = 3
#: Wall-clock budget of one workload pass, seconds.
PASS_BUDGET_S = 170.0
#: Budget kept back for each set-up-only start.
SETUP_BUDGET_S = 30.0


class WorkerFailed(RuntimeError):
    pass


def spawn(mode: str, args, workload: str, timeout: float) -> dict:
    """Run one worker interpreter to completion; its JSON report."""
    spawned_at = time.monotonic()
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--spawned-at", repr(spawned_at),
        "--out", str(args.out),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} {mode} worker timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} {mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _entries(values: dict[str, tuple]) -> dict[str, dict]:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def untraced(args, workload: str) -> dict:
    start = time.monotonic()
    run = spawn(
        "run", args, workload, PASS_BUDGET_S - SETUP_BUDGET_S * (SETUP_STARTS - 1)
    )
    setups, walls = [run["setup_s"]], [run["raw_setup_s"]]
    for _ in range(SETUP_STARTS - 1):
        remaining = PASS_BUDGET_S - (time.monotonic() - start)
        report = spawn("setup", args, workload, max(remaining, 1.0))
        setups.append(report["setup_s"])
        walls.append(report["raw_setup_s"])
    return {
        "correct": all(run["checks"].values()) and run["failed"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": _entries(metrics.end_to_end(run, setups)),
        "info": _entries(metrics.informational(run, walls)),
        "checks": run["checks"],
        "problems": run["problems"],
        "sim_digest": run["sim_digest"],
        "setup_samples_s": setups,
        "op_ref_s": run["op_ref_s"],
        "op_wall_s": run["op_wall_s"],
    }


def traced(args, workload: str) -> dict:
    report = spawn("trace", args, workload, PASS_BUDGET_S)
    layers = tuple(report["layers"][1:])
    return {
        "correct": all(report["checks"].values()) and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": _entries(metrics.layer_metrics(report, layers)),
        "info": _entries(
            {
                "traced_ops": (report["ops"], "count"),
                "wrapper_overhead_ns": (report["overhead_ns"], "ns"),
            }
        ),
        "checks": report["checks"],
        "problems": report["problems"],
        "sim_digest": report["sim_digest"],
        "spans_file": report["spans_file"],
    }


def show(workload: str, result: dict) -> None:
    for section in ("metrics", "info"):
        for name, entry in result[section].items():
            value = entry["value"]
            text = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
            print(f"{workload:<14} {name:<30} {text:>14} {entry['unit']}")
    for name, ok in result["checks"].items():
        print(f"{workload:<14} check {name:<24} {'pass' if ok else 'FAIL'}")
    for problem in result["problems"]:
        print(f"{workload:<14} problem: {problem}")
    print(f"{workload:<14} sim_digest {result['sim_digest']}")


def merge(results: dict[tuple[str, str], dict], prefix: bool) -> dict:
    """The final line: every pass's metrics (workload-prefixed for ``all``)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for (workload, _), result in results.items():
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}" if prefix else name] = entry
    return merged


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps
    # the running worker before the exit.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument(
        "--seconds",
        type=float,
        default=RUN_SECONDS,
        help="timed seconds of the measuring run (default: BENCHMARK.json's)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="0: untraced pass only, 1: traced pass only (default: both)",
    )
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    passes = {0: [untraced], 1: [traced], None: [untraced, traced]}[args.trace]
    results: dict[tuple[str, str], dict] = {}
    try:
        for workload in workloads:
            for run_pass in passes:
                result = run_pass(args, workload)
                results[(workload, run_pass.__name__)] = result
                show(workload, result)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    (args.out / "results.json").write_text(
        json.dumps(
            {
                "seed": args.seed,
                "seconds": args.seconds,
                "results": {f"{w}/{p}": r for (w, p), r in results.items()},
            },
            indent=1,
        )
    )
    final = merge(results, prefix=len(workloads) > 1)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
