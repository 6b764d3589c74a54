#!/usr/bin/env python
"""Record the repo's perf baseline: sweep wall-clock + hot-path micros.

Times a fixed fig6-style sweep (all four algorithms over ``--configs``
network configurations, paper-scale 8 servers x 180 images) serially and
with a worker pool, verifies the two produce bit-identical summaries, and
benchmarks the kernel/trace hot paths:

* DES calendar throughput (timeout schedule-and-fire events/second);
* ``BandwidthTrace.transfer_time`` — prefix-sum inversion vs the
  reference segment-by-segment walk (``_transfer_time_scan``);
* ``TraceLibrary.sample_noon_segment`` draw rate (cached sorted keys);
* vectorized sampling — cached/batched noon-segment draws vs the
  build-per-draw reference they replaced;
* config build — build-once ``SampledConfig`` fan-out vs resampling the
  network configuration for every ``(config, algorithm)`` run;
* run-tracing overhead — the same simulation with the tracer off vs on
  (the no-op tracer must stay effectively free);
* planner — the vectorized move-grid pricing (``BatchMoveEvaluator``)
  vs the scalar per-candidate test oracle at the paper's 8-server
  scale, both evaluator-level (cells/second on one
  round's full grid) and end-to-end (``plan()`` candidates/second),
  with a bit-identical ``PlanResult`` equality check;
* streaming fleet metrics at scale — a 100k-client synthetic open-loop
  stream through ``StreamingFleetMetrics``: ingest rate, flat-memory
  check, sketch error vs exact percentiles, shard-merge invariance;
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

    PYTHONPATH=src python tools/bench_sweep.py --configs 30 --workers 4

``--quick`` shrinks every leg for CI smoke runs (a couple of minutes,
numbers not comparable to a full run).  The machine block records the
requested and effective worker counts; on a single-CPU machine the
parallel legs measure pool overhead only and the JSON flags them with
``single_cpu_pool_overhead_only`` so a speedup < 1 there is not read as
a regression.  On multi-core hardware expect ~min(workers, cores)x.
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
from repro.experiments import ExperimentConfig, compare_algorithms
from repro.experiments.runner import run_configuration
from repro.obs import Tracer
from repro.sim import Environment
from repro.traces import InternetStudy

ALGORITHMS = [
    Algorithm.DOWNLOAD_ALL,
    Algorithm.ONE_SHOT,
    Algorithm.LOCAL,
    Algorithm.GLOBAL,
]


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


def bench_planner(quick: bool = False) -> dict:
    """Planner grid pricing: the batch-priced search vs the scalar oracle.

    Builds the paper-scale 8-server combination tree with a seeded
    asymmetric estimator and times two levels of the same hot path:

    * evaluator level — one planning round's full (operator x host) move
      grid priced by ``BatchMoveEvaluator.price_moves`` vs the
      ``SingleMoveEvaluator.cost_of_move`` per-cell loop of the scalar
      reference search (``tests/oracles/scalar_planner.py``);
    * end-to-end — repeated ``plan`` calls of ``OneShotPlanner`` and of
      the oracle's ``ScalarOneShotPlanner`` (this includes per-call
      snapshot construction, candidate enumeration and the per-round
      reductions, so the speedup is smaller than the evaluator-level
      number).

    Records whether both return identical plans.
    """
    import random

    # The scalar side is the test oracle in the repo's ``tests`` package.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from repro.dataflow.cost import CostModel
    from repro.dataflow.critical import BatchMoveEvaluator, critical_path
    from repro.dataflow.placement import Placement
    from repro.dataflow.tree import complete_binary_tree
    from repro.placement.one_shot import OneShotPlanner
    from tests.oracles.scalar_planner import (
        ScalarOneShotPlanner,
        SingleMoveEvaluator,
    )

    rng = random.Random(7)
    num_servers = 8  # the paper's scale
    tree = complete_binary_tree(num_servers)
    hosts = [f"h{i}" for i in range(num_servers)] + ["client"]
    sizes = {node.node_id: rng.uniform(1e4, 1e6) for node in tree.nodes()}
    model = CostModel(tree, sizes, startup_cost=0.05, disk_rate=3e6)
    server_hosts = {
        server.node_id: hosts[i] for i, server in enumerate(tree.servers())
    }
    start = Placement.all_at_client(tree, server_hosts, "client")
    bandwidth: dict = {}

    def estimator(a, b):
        key = (a, b)
        if key not in bandwidth:
            bandwidth[key] = rng.uniform(1e5, 1e7)
        return bandwidth[key]

    moves = [(op.node_id, tuple(sorted(hosts))) for op in tree.operators()]
    grid_cells = sum(len(hs) - 1 for _, hs in moves)
    base_cost = critical_path(tree, start, model, estimator).cost
    reps = 50 if quick else 300
    # Machine noise on shared runners swings single trials ~3x; take the
    # best of several so the recorded rates reflect the hardware, not
    # the neighbours.
    tries = 2 if quick else 7

    def best_of(trial):
        return max(trial() for _ in range(tries))

    def scalar_trial():
        t0 = time.perf_counter()
        for _ in range(reps):
            evaluator = SingleMoveEvaluator(tree, start, model, estimator)
            for node_id, candidate_hosts in moves:
                current = start.host_of(node_id)
                for host in candidate_hosts:
                    if host != current:
                        evaluator.cost_of_move(node_id, host)
        return reps * grid_cells / (time.perf_counter() - t0)

    batch = BatchMoveEvaluator(tree, start, model, estimator, hosts)

    def batch_trial():
        t0 = time.perf_counter()
        for _ in range(reps):
            batch.price_moves(moves, base_cost)
        return reps * grid_cells / (time.perf_counter() - t0)

    scalar_rate = best_of(scalar_trial)
    batch_rate = best_of(batch_trial)

    plan_reps = 10 if quick else 60

    def plan_bench(planner_type):
        planner = planner_type(tree, hosts, model)
        result = planner.plan(estimator, start)

        def trial():
            t0 = time.perf_counter()
            for _ in range(plan_reps):
                # Time the search, not the memo of the identical
                # previous call.
                planner._memo = None
                planner.plan(estimator, start)
            elapsed = time.perf_counter() - t0
            return plan_reps * result.candidates_evaluated / elapsed

        return result, best_of(trial)

    scalar_result, scalar_plan_rate = plan_bench(ScalarOneShotPlanner)
    vector_result, vector_plan_rate = plan_bench(OneShotPlanner)
    identical = (
        scalar_result.placement == vector_result.placement
        and scalar_result.cost == vector_result.cost  # bitwise
        and scalar_result.rounds == vector_result.rounds
        and scalar_result.candidates_evaluated
        == vector_result.candidates_evaluated
        and scalar_result.links_queried == vector_result.links_queried
    )

    return {
        "num_servers": num_servers,
        "grid_cells": grid_cells,
        "rounds": vector_result.rounds,
        "scalar_cells_per_second": round(scalar_rate),
        "vectorized_cells_per_second": round(batch_rate),
        "evaluator_speedup": round(batch_rate / scalar_rate, 2),
        "scalar_plan_candidates_per_second": round(scalar_plan_rate),
        "vectorized_plan_candidates_per_second": round(vector_plan_rate),
        "plan_speedup": round(vector_plan_rate / scalar_plan_rate, 2),
        "plan_results_identical": identical,
    }


def bench_sweep(setup: ExperimentConfig, n_configs: int, workers: int) -> dict:
    """Serial vs parallel wall-clock for the fig6-style sweep."""
    t0 = time.perf_counter()
    serial = compare_algorithms(setup, ALGORITHMS, n_configs, workers=1)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = compare_algorithms(setup, ALGORITHMS, n_configs, workers=workers)
    parallel_seconds = time.perf_counter() - t0

    identical = all(
        serial[name].completion_times == parallel[name].completion_times
        and serial[name].interarrivals == parallel[name].interarrivals
        and serial[name].relocations == parallel[name].relocations
        for name in serial
    )
    return {
        "n_configs": n_configs,
        "algorithms": [a.value for a in ALGORITHMS],
        "workers": workers,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "parallel_speedup": round(serial_seconds / parallel_seconds, 3),
        "bit_identical": identical,
        "runs_per_second_serial": round(
            n_configs * len(ALGORITHMS) / serial_seconds, 3
        ),
    }


def bench_workload(workers: int, n_seeds: int = 4) -> dict:
    """Concurrent-fleet throughput plus workload-sweep serial vs parallel.

    One mixed-planner fleet (4 clients x 2 queries, global + one-shot on
    a shared 4-server network) timed end to end, then the same fleet
    swept over ``n_seeds`` seeds serially and with a worker pool,
    verifying the two produce bit-identical fleet summaries.
    """
    from dataclasses import replace as dc_replace

    from repro.workload import (
        ClosedLoop,
        QueryClass,
        WorkloadSpec,
        run_workload,
        run_workload_sweep,
    )

    spec = WorkloadSpec(
        classes=(
            QueryClass(name="global", algorithm=Algorithm.GLOBAL),
            QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
        ),
        num_clients=4,
        queries_per_client=2,
        arrivals=ClosedLoop(think_time=2.0),
        seed=7,
        num_servers=4,
        images_per_server=6,
    )

    run_workload(spec)  # warm caches (trace library, placement, numpy)
    t0 = time.perf_counter()
    result = run_workload(spec)
    single_seconds = time.perf_counter() - t0

    tasks = [
        (f"seed{s}", dc_replace(spec, seed=s)) for s in range(n_seeds)
    ]
    t0 = time.perf_counter()
    serial = run_workload_sweep(tasks, workers=1)
    serial_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = run_workload_sweep(tasks, workers=workers)
    parallel_seconds = time.perf_counter() - t0

    return {
        "queries_per_fleet": spec.total_queries,
        "fleet_seconds": round(single_seconds, 4),
        "queries_per_second": round(spec.total_queries / single_seconds, 3),
        "fleet_completed": result.fleet["completed"],
        "sweep_seeds": n_seeds,
        "workers": workers,
        "sweep_serial_seconds": round(serial_seconds, 3),
        "sweep_parallel_seconds": round(parallel_seconds, 3),
        "sweep_parallel_speedup": round(serial_seconds / parallel_seconds, 3),
        "bit_identical": serial == parallel,
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

    Drives a :class:`~repro.workload.sink.StreamingFleetMetrics` directly
    with a seeded synthetic open-loop outcome stream (the sink neither
    knows nor cares whether a DES or a generator produced the stats), so
    the leg isolates the metrics path: ingest throughput, memory
    flatness between the half-way and full marks, pickled sink size, the
    sketch-vs-exact percentile error, and shard-merge order invariance.
    """
    import pickle
    import random
    import tracemalloc

    from repro.workload import QueryStats, StreamingFleetMetrics, merge_sinks
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

    sink = StreamingFleetMetrics(num_clients, relative_error=eps)
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
        StreamingFleetMetrics(num_clients, relative_error=eps)
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


def bench_fast_path(quick: bool = False, repeats: int = 3) -> dict:
    """Hybrid fluid/DES collapse: the four-algorithm run fast vs forced-DES.

    Runs the standard comparison configuration (all four algorithms at
    one network sample) with the default fluid fast path and again with
    ``fluid_fast_path=False`` (the classic all-process schedule), and
    reports kernel events per run, serial runs/second both ways, the
    event-reduction fraction, fluid engagement counts, and whether the
    paper-facing metrics stayed bit-identical.
    """
    setup = (
        ExperimentConfig(num_servers=4, images_per_server=12)
        if quick
        else ExperimentConfig()
    )

    def sweep(fluid: bool):
        return [
            run_configuration(setup, 0, a, fluid_fast_path=fluid)
            for a in ALGORITHMS
        ]

    sweep(True)  # warm caches (trace library, config, numpy) + both paths
    sweep(False)

    def timed(fluid: bool):
        best, metrics = None, None
        for _ in range(repeats):
            t0 = time.perf_counter()
            metrics = sweep(fluid)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best, metrics

    fast_seconds, fast = timed(True)
    slow_seconds, slow = timed(False)

    fast_events = sum(m.kernel_events for m in fast)
    slow_events = sum(m.kernel_events for m in slow)
    identical = all(
        f.summary() == s.summary() and f.arrival_times == s.arrival_times
        for f, s in zip(fast, slow)
    )
    runs = len(ALGORITHMS)
    return {
        "runs": runs,
        "num_servers": setup.num_servers,
        "images_per_server": setup.images_per_server,
        "repeats": repeats,
        "kernel_events_fast": fast_events,
        "kernel_events_full_des": slow_events,
        "events_per_run_fast": round(fast_events / runs),
        "events_per_run_full_des": round(slow_events / runs),
        "event_reduction": round(1.0 - fast_events / slow_events, 3),
        "fluid_transfers": sum(m.fluid_transfers for m in fast),
        "des_transfers": sum(m.des_transfers for m in fast),
        "fast_seconds": round(fast_seconds, 4),
        "full_des_seconds": round(slow_seconds, 4),
        "runs_per_second_fast": round(runs / fast_seconds, 3),
        "runs_per_second_full_des": round(runs / slow_seconds, 3),
        "serial_speedup": round(slow_seconds / fast_seconds, 3),
        "metrics_identical": identical,
    }


def bench_trace_algebra(n_calls: int = 2000) -> dict:
    """Prefix-sum transfer_time vs the reference segment walk."""
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
        trace._transfer_time_scan(float(n), float(s))
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


def bench_library_sampling(n_draws: int = 20_000) -> dict:
    """sample_noon_segment draw rate (cached sorted keys + noon segments)."""
    library = InternetStudy(seed=2024).run()
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    for _ in range(n_draws):
        library.sample_noon_segment(rng)
    elapsed = time.perf_counter() - t0
    return {
        "draws": n_draws,
        "seconds": round(elapsed, 4),
        "draws_per_second": round(n_draws / elapsed),
    }


def bench_vectorized_sampling(n_draws: int = 20_000) -> dict:
    """Cached/batched noon-segment draws vs the build-per-draw reference.

    The cached path (one vectorized index draw, segments from the per-pair
    cache) must return exactly the objects the uncached reference builds;
    the bench verifies value identity on a sample before timing.
    """
    from repro.traces.study import noon_segment

    library = InternetStudy(seed=2024).run()
    keys = list(library.pairs())

    def uncached_draw(rng):
        key = keys[int(rng.integers(len(keys)))]
        return noon_segment(
            library.trace(*key), library.tz_offsets.get(key, 0.0)
        )

    # Value-identity spot check: cached draws == fresh builds.
    check_rng_a = np.random.default_rng(3)
    check_rng_b = np.random.default_rng(3)
    for _ in range(5):
        cached = library.sample_noon_segment(check_rng_a)
        fresh = uncached_draw(check_rng_b)
        assert np.array_equal(cached.times, fresh.times)
        assert np.array_equal(cached.rates, fresh.rates)

    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    for _ in range(max(1, n_draws // 40)):
        uncached_draw(rng)
    uncached_seconds = time.perf_counter() - t0
    uncached_rate = max(1, n_draws // 40) / uncached_seconds

    library.warm_noon_segments()
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    library.sample_noon_segments(rng, n_draws)
    batched_seconds = time.perf_counter() - t0
    batched_rate = n_draws / batched_seconds

    return {
        "draws": n_draws,
        "uncached_draws_per_second": round(uncached_rate),
        "batched_draws_per_second": round(batched_rate),
        "speedup": round(batched_rate / uncached_rate, 1),
    }


def bench_config_build(n_configs: int = 20) -> dict:
    """Build-once SampledConfig fan-out vs per-algorithm resampling.

    The old sweep path resampled the network configuration once per
    ``(config, algorithm)`` run; the build-once path samples it once and
    fans the frozen artifact out across the four algorithms.
    """
    from repro.experiments.config import (
        build_spec_from_config,
        sample_config,
    )

    setup = ExperimentConfig()
    setup.trace_library().warm_noon_segments()
    n_specs = n_configs * len(ALGORITHMS)

    t0 = time.perf_counter()
    for index in range(n_configs):
        for algorithm in ALGORITHMS:
            sampled = sample_config(setup, index, cache=False)
            build_spec_from_config(setup, sampled, algorithm)
    resample_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for index in range(n_configs):
        for algorithm in ALGORITHMS:
            sampled = sample_config(setup, index)
            build_spec_from_config(setup, sampled, algorithm)
    build_once_seconds = time.perf_counter() - t0

    return {
        "configs": n_configs,
        "specs": n_specs,
        "resample_specs_per_second": round(n_specs / resample_seconds),
        "build_once_specs_per_second": round(n_specs / build_once_seconds),
        "speedup": round(resample_seconds / build_once_seconds, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=30,
                        help="fig6-style sweep size (default 30)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the parallel leg (default 4)")
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="output path (default BENCH_sweep.json)")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="micro-benchmarks only")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny sizes, every leg still "
                        "runs once (exercises the code, not the numbers)")
    args = parser.parse_args(argv)
    if args.quick:
        args.configs = min(args.configs, 2)

    setup = ExperimentConfig()
    setup.trace_library()  # warm the library cache outside the timers

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

    print(f"[bench] fluid fast path (default vs forced full DES)...", flush=True)
    results["fast_path"] = bench_fast_path(
        quick=args.quick, repeats=1 if args.quick else 3
    )
    fast_path = results["fast_path"]
    print(
        f"         {fast_path['kernel_events_full_des']:,} -> "
        f"{fast_path['kernel_events_fast']:,} kernel events "
        f"(-{fast_path['event_reduction']:.0%}), serial "
        f"{fast_path['serial_speedup']}x, "
        f"{fast_path['fluid_transfers']:,} fluid / "
        f"{fast_path['des_transfers']:,} DES transfers, "
        f"identical: {fast_path['metrics_identical']}"
    )

    print(f"[bench] trace algebra (prefix-sum vs walk)...", flush=True)
    results["trace_algebra"] = bench_trace_algebra(200 if args.quick else 2000)
    print(f"         {results['trace_algebra']['speedup']}x over the walk")

    print(f"[bench] library sampling...", flush=True)
    results["library_sampling"] = bench_library_sampling(
        2_000 if args.quick else 20_000
    )
    print(f"         {results['library_sampling']['draws_per_second']:,} draws/s")

    print(f"[bench] vectorized sampling (cached vs build-per-draw)...", flush=True)
    results["vectorized_sampling"] = bench_vectorized_sampling(
        2_000 if args.quick else 20_000
    )
    vec = results["vectorized_sampling"]
    print(
        f"         {vec['batched_draws_per_second']:,} draws/s cached vs "
        f"{vec['uncached_draws_per_second']:,} uncached "
        f"({vec['speedup']}x)"
    )

    print(f"[bench] config build (build-once vs resample)...", flush=True)
    results["config_build"] = bench_config_build(4 if args.quick else 20)
    build = results["config_build"]
    print(
        f"         {build['build_once_specs_per_second']:,} specs/s "
        f"build-once vs {build['resample_specs_per_second']:,} resampled "
        f"({build['speedup']}x)"
    )

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

    print(f"[bench] planner (batch vs scalar-oracle pricing)...", flush=True)
    results["planner"] = bench_planner(quick=args.quick)
    eng = results["planner"]
    print(
        f"         evaluator {eng['scalar_cells_per_second']:,} -> "
        f"{eng['vectorized_cells_per_second']:,} cells/s "
        f"({eng['evaluator_speedup']}x), plan "
        f"{eng['scalar_plan_candidates_per_second']:,} -> "
        f"{eng['vectorized_plan_candidates_per_second']:,} cand/s "
        f"({eng['plan_speedup']}x), identical: "
        f"{eng['plan_results_identical']}"
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

    print(f"[bench] concurrent workload fleet + sweep...", flush=True)
    results["workload"] = bench_workload(
        args.workers, n_seeds=2 if args.quick else 4
    )
    results["workload"]["single_cpu_pool_overhead_only"] = single_cpu
    workload = results["workload"]
    print(
        f"         fleet {workload['fleet_seconds']}s "
        f"({workload['queries_per_second']} queries/s), sweep "
        f"{workload['sweep_serial_seconds']}s serial vs "
        f"{workload['sweep_parallel_seconds']}s parallel "
        f"({workload['sweep_parallel_speedup']}x), "
        f"bit-identical: {workload['bit_identical']}"
    )

    if not args.skip_sweep:
        print(
            f"[bench] fig6-style sweep: {args.configs} configs x "
            f"{len(ALGORITHMS)} algorithms, serial then {args.workers} "
            "workers...",
            flush=True,
        )
        results["sweep"] = bench_sweep(setup, args.configs, args.workers)
        results["sweep"]["single_cpu_pool_overhead_only"] = single_cpu
        sweep = results["sweep"]
        print(
            f"         serial {sweep['serial_seconds']}s, parallel "
            f"{sweep['parallel_seconds']}s ({sweep['parallel_speedup']}x), "
            f"bit-identical: {sweep['bit_identical']}"
        )
        if single_cpu and sweep["parallel_speedup"] < 1.0:
            print(
                "         note: single-CPU machine — the parallel leg "
                "measures pool overhead only (flagged in the JSON, not a "
                "regression)"
            )

    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[bench] wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
