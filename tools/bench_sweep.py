#!/usr/bin/env python
"""Record the repo's perf baseline: hot-path micros and fleet legs.

Benchmarks the kernel/trace hot paths and the fleet-level features:

* DES calendar throughput (timeout schedule-and-fire events/second);
* ``BandwidthTrace.transfer_time`` — prefix-sum inversion vs the
  reference segment-by-segment walk (``tests/oracles/trace_scan.py``);
* run-tracing overhead — the same simulation with the tracer off vs on
  (the no-op tracer must stay effectively free);
* streaming fleet metrics at scale — a 100k-client synthetic open-loop
  stream through a record-free ``FleetMetrics`` sink: ingest rate,
  flat-memory check, sketch error vs exact percentiles, shard-merge
  invariance;
* overload protection under chaos — the same oversubscribed fleet wide
  open vs protected (admission + deadlines + retries + breakers):
  protected p99 stays under the deadline, counters reconcile with a
  trace replay and across a 3-way shard split;
* fleet-aware joint planning — a chaos-stressed fleet of replanning
  global queries blind vs coordinated vs fair: the coordinator's
  residual-bandwidth view and relocation budget cut fleet p99 and
  churn, with the same replay and shard reconciliation asserted.

Writes ``BENCH_sweep.json`` (see ``docs/performance.md`` for how to read
it).  Run from the repo root::

    PYTHONPATH=src python tools/bench_sweep.py --workers 4

``--quick`` shrinks every leg for CI smoke runs (a couple of minutes,
numbers not comparable to a full run).  The machine block records the
requested and effective worker counts of the sharded runs; on a
single-CPU machine it flags ``single_cpu_pool_overhead_only``.  The
serial-vs-parallel sweep identity the retired ``sweep`` and
``workload`` legs checked is tier-1's job now
(``tests/experiments/test_parallel.py`` and
``tests/workload/test_sweep.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.engine.config import Algorithm
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.obs import Tracer
from repro.sim import Environment
from repro.traces import InternetStudy


def bench_tracer_overhead(repeats: int = 3) -> dict:
    """Tracer-off vs tracer-on wall-clock for one global-algorithm run.

    The ISSUE budget for the disabled tracer is <=3% on the sweep; this
    times the same run both ways so regressions show up directly.
    """
    setup = ExperimentConfig(num_servers=4, images_per_server=60)

    def one_run(tracer):
        t0 = time.perf_counter()
        run_configuration(setup, 0, Algorithm.GLOBAL, tracer=tracer)
        return time.perf_counter() - t0

    one_run(None)  # warm caches (trace library, placement, numpy)
    off_seconds = min(one_run(None) for _ in range(repeats))
    tracers = [Tracer() for _ in range(repeats)]
    on_seconds = min(one_run(t) for t in tracers)
    events = max(len(t.events) for t in tracers)
    return {
        "repeats": repeats,
        "tracer_off_seconds": round(off_seconds, 4),
        "tracer_on_seconds": round(on_seconds, 4),
        "on_over_off_ratio": round(on_seconds / off_seconds, 3),
        "events_recorded": events,
    }


def bench_overload(workers: int, quick: bool = False) -> dict:
    """Overload protection under chaos: bounded tail vs open admission.

    Runs the same oversubscribed open-loop fleet (Poisson arrivals well
    above the service rate, reference chaos plan injected) twice: wide
    open, and protected by admission control + deadlines + retry
    budgets + breakers.  The protected fleet must keep the p99 of
    completed queries under the deadline while the unprotected tail
    blows past it, and its resilience counters must reconcile with a
    bit-exact trace replay and across a 3-way client-hash shard split.
    """
    from dataclasses import replace as dc_replace

    from repro.faults import reference_chaos_plan
    from repro.workload import (
        OpenLoop,
        OverloadPolicy,
        QueryClass,
        WorkloadSpec,
        fleet_from_trace,
        run_workload,
        run_workload_sharded,
    )

    deadline = 700.0
    protected_classes = tuple(
        QueryClass(
            name=algorithm.value,
            algorithm=algorithm,
            deadline=deadline,
            slo_target=600.0,
        )
        for algorithm in (Algorithm.GLOBAL, Algorithm.ONE_SHOT)
    )
    spec = WorkloadSpec(
        classes=protected_classes,
        num_clients=4 if quick else 8,
        queries_per_client=2 if quick else 3,
        arrivals=OpenLoop(rate=0.02, process="poisson"),
        seed=11,
        num_servers=4,
        images_per_server=3,
        overload=OverloadPolicy(
            max_concurrent=3,
            max_queue_depth=4,
            shed_probability=0.05,
            retry_budget=1,
            retry_backoff=60.0,
            breaker_threshold=2,
            breaker_cooldown=600.0,
        ),
    )
    spec = dc_replace(
        spec, fault_plan=reference_chaos_plan(spec.all_hosts, seed=3)
    )
    unprotected = dc_replace(
        spec,
        overload=None,
        classes=tuple(
            dc_replace(qclass, deadline=None, slo_target=None)
            for qclass in spec.classes
        ),
    )

    run_workload(unprotected)  # warm caches outside the timers
    t0 = time.perf_counter()
    open_result = run_workload(unprotected)
    unprotected_seconds = time.perf_counter() - t0

    tracer = Tracer()
    t0 = time.perf_counter()
    protected_result = run_workload(spec, tracer=tracer)
    protected_seconds = time.perf_counter() - t0

    open_fleet = open_result.fleet
    protected_fleet = protected_result.fleet
    resilience = protected_fleet["resilience"]
    replay_identical = fleet_from_trace(tracer.events) == protected_fleet

    serial = run_workload_sharded(spec, 3, workers=1)
    parallel = run_workload_sharded(spec, 3, workers=workers)
    sharded_identical = serial.fleet == parallel.fleet

    protected_p99 = protected_fleet["latency"]["p99"]
    unprotected_p99 = open_fleet["latency"]["p99"]
    return {
        "scheduled": spec.total_queries,
        "deadline_seconds": deadline,
        "unprotected_p99": round(unprotected_p99, 1),
        "protected_p99": round(protected_p99, 1),
        # Completed queries can never exceed the deadline; the open
        # fleet's tail has no such bound under chaos.
        "protected_p99_bounded": protected_p99 <= deadline,
        "unprotected_completed": open_fleet["completed"],
        "protected_completed": protected_fleet["completed"],
        "unprotected_goodput": round(
            open_fleet["completed"] / open_fleet["elapsed"], 6
        ),
        "protected_goodput": round(resilience["goodput"], 6),
        "shed": resilience["shed"],
        "deadline_aborts": resilience["deadline_aborts"],
        "retries": resilience["retries"],
        "breaker_opens": resilience["breaker"]["opens"],
        "unprotected_seconds": round(unprotected_seconds, 3),
        "protected_seconds": round(protected_seconds, 3),
        "replay_identical": replay_identical,
        "sharded_serial_vs_parallel_identical": sharded_identical,
    }


def bench_fleet_planner(workers: int) -> dict:
    """Fleet-aware joint planning vs blind per-query planning.

    Runs the same chaos-stressed closed-loop fleet (six global queries
    replanning every 30 s while the reference chaos plan degrades links
    under them) three ways: blind (``fleet=None``), coordinated, and
    fair.  The fleet is already CI-sized (a few seconds end to end), so
    ``--quick`` does not shrink it.  Blind planners thrash — every query chases the same
    post-fault bandwidth and relocates over saturated links — while the
    coordinator's residual-bandwidth view plus the per-link relocation
    budget caps fleet-wide churn.  The leg reports fleet p99 and Jain
    fairness for all three, asserts the arbiter actually engaged
    (grants *and* denies), and reconciles the coordinated run against a
    bit-exact trace replay and a 3-way client-hash shard split.
    """
    from dataclasses import replace as dc_replace

    from repro.faults import reference_chaos_plan
    from repro.workload import (
        ClosedLoop,
        FleetPolicy,
        QueryClass,
        WorkloadSpec,
        fleet_from_trace,
        run_workload,
        run_workload_sharded,
    )

    def make_spec(fleet):
        spec = WorkloadSpec(
            classes=(
                QueryClass(
                    name="global",
                    algorithm=Algorithm.GLOBAL,
                    slo_target=2000.0,
                    overrides={"relocation_period": 30.0},
                ),
            ),
            num_clients=6,
            queries_per_client=1,
            arrivals=ClosedLoop(),
            seed=17,
            num_servers=4,
            images_per_server=24,
            fleet=fleet,
        )
        return dc_replace(
            spec, fault_plan=reference_chaos_plan(spec.all_hosts, seed=3)
        )

    policy = FleetPolicy(
        mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
    )
    fair_policy = dc_replace(policy, mode="fair")

    run_workload(make_spec(None))  # warm caches outside the timers
    t0 = time.perf_counter()
    blind = run_workload(make_spec(None)).fleet
    blind_seconds = time.perf_counter() - t0

    tracer = Tracer()
    t0 = time.perf_counter()
    coordinated_result = run_workload(make_spec(policy), tracer=tracer)
    coordinated_seconds = time.perf_counter() - t0
    coordinated = coordinated_result.fleet
    fair = run_workload(make_spec(fair_policy)).fleet

    block = coordinated["fleet"]
    replay_identical = fleet_from_trace(tracer.events) == coordinated

    serial = run_workload_sharded(make_spec(policy), 3, workers=1)
    parallel = run_workload_sharded(make_spec(policy), 3, workers=workers)
    sharded_identical = serial.fleet == parallel.fleet

    blind_p99 = blind["latency"]["p99"]
    coordinated_p99 = coordinated["latency"]["p99"]
    return {
        "scheduled": blind["scheduled"],
        "blind_p99": round(blind_p99, 1),
        "coordinated_p99": round(coordinated_p99, 1),
        "fair_p99": round(fair["latency"]["p99"], 1),
        "blind_fairness_jain": round(blind["fairness_jain"], 4),
        "coordinated_fairness_jain": round(
            coordinated["fairness_jain"], 4
        ),
        "fair_fairness_jain": round(fair["fairness_jain"], 4),
        "blind_relocations": blind["relocations"]["total"],
        "coordinated_relocations": coordinated["relocations"]["total"],
        "grants": block["grants"],
        "denies": block["denies"],
        "grant_rate": block["grant_rate"],
        "planner_candidates": block["planner_candidates"],
        "arbiter_engaged": block["grants"] > 0 and block["denies"] > 0,
        "improves_p99_or_fairness": (
            coordinated_p99 < blind_p99
            or coordinated["fairness_jain"] > blind["fairness_jain"]
        ),
        "blind_seconds": round(blind_seconds, 3),
        "coordinated_seconds": round(coordinated_seconds, 3),
        "replay_identical": replay_identical,
        "sharded_serial_vs_parallel_identical": sharded_identical,
    }


def bench_fleet_scale(quick: bool = False) -> dict:
    """Streaming fleet metrics at 100k+ clients: flat memory, bounded error.

    Drives a record-free :class:`~repro.workload.sink.FleetMetrics` directly
    with a seeded synthetic open-loop outcome stream (the sink neither
    knows nor cares whether a DES or a generator produced the stats), so
    the leg isolates the metrics path: ingest throughput, memory
    flatness between the half-way and full marks, pickled sink size, the
    sketch-vs-exact percentile error, and shard-merge order invariance.
    """
    import pickle
    import random
    import tracemalloc

    from repro.workload import FleetMetrics, QueryStats, merge_sinks
    from repro.workload.sketch import exact_percentiles
    from repro.workload.sweep import shard_of

    num_clients = 20_000 if quick else 100_000
    queries_per_client = 2
    total = num_clients * queries_per_client
    eps = 0.01

    def outcome_stream():
        rng = random.Random(20_260_808)
        clock = 0.0
        for i in range(total):
            clock += rng.expovariate(1.0)
            client = i % num_clients
            latency = rng.lognormvariate(5.0, 1.2)
            yield QueryStats(
                query_id=f"c{client}:{i // num_clients}",
                class_name="global" if i % 3 else "one-shot",
                algorithm="global" if i % 3 else "one-shot",
                issued_at=clock,
                completion_time=clock + latency,
                images_delivered=8,
                truncated=False,
                relocations=i % 4,
                aborted_relocations=0,
                bytes_on_wire=float(rng.randrange(10**7)),
            )

    sink = FleetMetrics(num_clients, relative_error=eps, keep_records=False)
    tracemalloc.start()
    t0 = time.perf_counter()
    halfway_bytes = None
    for i, stats in enumerate(outcome_stream()):
        sink.query_started(stats.query_id, stats.class_name, stats.issued_at)
        sink.query_finished(stats)
        if i + 1 == total // 2:
            halfway_bytes, _ = tracemalloc.get_traced_memory()
    ingest_seconds = time.perf_counter() - t0
    final_bytes, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    summary = sink.summary(elapsed=1.0, scheduled=total)

    # Replay the same seeded stream into an exact latency list to pin
    # the sketch's relative-error guarantee at scale.
    latencies = [s.latency for s in outcome_stream()]
    exact = exact_percentiles(latencies, (50, 95, 99))
    max_relative_error = max(
        abs(summary["latency"][f"p{p}"] - truth) / truth
        for p, truth in zip((50, 95, 99), exact)
    )

    # Shard-merge order invariance over a 3-way client-hash split.
    shards = [
        FleetMetrics(num_clients, relative_error=eps, keep_records=False)
        for _ in range(3)
    ]
    n_shard_stats = total // 10
    for stats in outcome_stream():
        if n_shard_stats == 0:
            break
        n_shard_stats -= 1
        client = int(stats.query_id[1:].split(":")[0])
        shard = shards[shard_of(client, 3)]
        shard.query_started(stats.query_id, stats.class_name, stats.issued_at)
        shard.query_finished(stats)
    forward = merge_sinks([pickle.loads(pickle.dumps(s)) for s in shards])
    backward = merge_sinks(
        [pickle.loads(pickle.dumps(s)) for s in reversed(shards)]
    )
    order_invariant = (
        forward.summary(1.0, scheduled=total)
        == backward.summary(1.0, scheduled=total)
    )

    return {
        "num_clients": num_clients,
        "queries": total,
        "ingest_seconds": round(ingest_seconds, 3),
        "queries_per_second": round(total / ingest_seconds),
        "halfway_traced_bytes": halfway_bytes,
        "final_traced_bytes": final_bytes,
        "peak_traced_bytes": peak_bytes,
        # Flat memory: the second half of the stream must not grow the
        # sink (per-client arrays dominate and are allocated up front).
        "memory_growth_ratio": round(final_bytes / halfway_bytes, 4),
        "pickled_sink_bytes": len(pickle.dumps(sink)),
        "completed": summary["completed"],
        "max_percentile_relative_error": round(max_relative_error, 6),
        "relative_error_budget": 2 * eps,
        "within_error_budget": max_relative_error <= 2 * eps,
        "shard_merge_order_invariant": order_invariant,
    }


def bench_kernel(n_events: int = 100_000) -> dict:
    """Schedule-and-fire throughput of the event calendar."""
    env = Environment()

    def ticker(env, count):
        for _ in range(count):
            yield env.timeout(1.0)

    for _ in range(5):
        env.process(ticker(env, n_events // 5))
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    return {
        "timeout_events": n_events,
        "seconds": round(elapsed, 4),
        "events_per_second": round(n_events / elapsed),
    }


def bench_trace_algebra(n_calls: int = 2000) -> dict:
    """Prefix-sum transfer_time vs the reference segment walk."""
    # The walk is the test oracle in the repo's ``tests`` package.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.oracles.trace_scan import transfer_time_scan

    library = InternetStudy(seed=2024).run()
    trace = library.all_traces()[0]
    rng = np.random.default_rng(0)
    # Transfer sizes that straddle many 30 s segments (hours of wire time
    # at tens of KB/s) — the regime the old walk paid for linearly.
    sizes = rng.uniform(1e6, 5e7, size=n_calls)
    starts = rng.uniform(trace.start, trace.start + trace.duration / 2, size=n_calls)

    t0 = time.perf_counter()
    fast = [trace.transfer_time(float(n), float(s)) for n, s in zip(sizes, starts)]
    fast_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    slow = [
        transfer_time_scan(trace, float(n), float(s))
        for n, s in zip(sizes, starts)
    ]
    scan_seconds = time.perf_counter() - t0

    assert np.allclose(fast, slow, rtol=1e-9), "prefix-sum diverged from walk"
    return {
        "calls": n_calls,
        "trace_samples": len(trace),
        "prefix_sum_seconds": round(fast_seconds, 4),
        "segment_walk_seconds": round(scan_seconds, 4),
        "speedup": round(scan_seconds / fast_seconds, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the sharded runs (default 4)")
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="output path (default BENCH_sweep.json)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny sizes, every leg still "
                        "runs once (exercises the code, not the numbers)")
    args = parser.parse_args(argv)

    from repro.experiments.parallel import resolve_workers

    cpu_count = os.cpu_count()
    workers_resolved = resolve_workers(args.workers)
    # A pool bigger than the machine never runs more than cpu_count
    # workers at once: report the parallelism actually measured, and
    # flag the oversubscribed regime so pool-speedup numbers are read
    # against the right ceiling (see docs/performance.md).
    workers_effective = min(workers_resolved, cpu_count or 1)
    single_cpu = (cpu_count or 1) <= 1
    results: dict = {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "workers_requested": args.workers,
            "workers_resolved": workers_resolved,
            "workers_effective": workers_effective,
            "workers_oversubscribed": workers_resolved > workers_effective,
            # On a 1-CPU machine the parallel legs measure pool overhead
            # only; a speedup < 1 there is expected, not a regression.
            "single_cpu_pool_overhead_only": single_cpu,
        },
        "quick_mode": args.quick,
    }

    print(f"[bench] kernel calendar throughput...", flush=True)
    results["kernel"] = bench_kernel(10_000 if args.quick else 100_000)
    print(f"         {results['kernel']['events_per_second']:,} events/s")

    print(f"[bench] trace algebra (prefix-sum vs walk)...", flush=True)
    results["trace_algebra"] = bench_trace_algebra(200 if args.quick else 2000)
    print(f"         {results['trace_algebra']['speedup']}x over the walk")

    print(f"[bench] tracer overhead (off vs on)...", flush=True)
    results["tracer_overhead"] = bench_tracer_overhead(
        repeats=1 if args.quick else 3
    )
    overhead = results["tracer_overhead"]
    print(
        f"         off {overhead['tracer_off_seconds']}s, on "
        f"{overhead['tracer_on_seconds']}s "
        f"({overhead['on_over_off_ratio']}x, "
        f"{overhead['events_recorded']:,} events)"
    )

    print(f"[bench] streaming fleet metrics at scale...", flush=True)
    results["fleet_scale"] = bench_fleet_scale(quick=args.quick)
    scale = results["fleet_scale"]
    print(
        f"         {scale['queries']:,} queries over "
        f"{scale['num_clients']:,} clients at "
        f"{scale['queries_per_second']:,}/s, memory growth "
        f"{scale['memory_growth_ratio']}x (flat), sink "
        f"{scale['pickled_sink_bytes']:,} B pickled, max percentile "
        f"error {scale['max_percentile_relative_error']} "
        f"(budget {scale['relative_error_budget']}), shard-merge "
        f"order-invariant: {scale['shard_merge_order_invariant']}"
    )

    print(f"[bench] overload protection under chaos...", flush=True)
    results["overload"] = bench_overload(args.workers, quick=args.quick)
    overload = results["overload"]
    print(
        f"         p99 {overload['unprotected_p99']}s open vs "
        f"{overload['protected_p99']}s protected (deadline "
        f"{overload['deadline_seconds']}s, bounded: "
        f"{overload['protected_p99_bounded']}), shed {overload['shed']}, "
        f"aborts {overload['deadline_aborts']}, replay identical: "
        f"{overload['replay_identical']}, sharded identical: "
        f"{overload['sharded_serial_vs_parallel_identical']}"
    )

    print(f"[bench] fleet-aware joint planning vs blind...", flush=True)
    results["fleet_planner"] = bench_fleet_planner(args.workers)
    planner = results["fleet_planner"]
    print(
        f"         p99 {planner['blind_p99']}s blind vs "
        f"{planner['coordinated_p99']}s coordinated vs "
        f"{planner['fair_p99']}s fair (improves: "
        f"{planner['improves_p99_or_fairness']}), relocations "
        f"{planner['blind_relocations']} -> "
        f"{planner['coordinated_relocations']}, grants "
        f"{planner['grants']} / denies {planner['denies']}, replay "
        f"identical: {planner['replay_identical']}, sharded identical: "
        f"{planner['sharded_serial_vs_parallel_identical']}"
    )

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[bench] wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
