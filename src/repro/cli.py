"""Command-line interface.

Subcommands::

    repro run      — simulate one algorithm on one network configuration
    repro compare  — all four algorithms on N configurations (mini Fig. 6)
    repro chaos    — all four algorithms under a fault-injection plan
    repro workload — N concurrent queries contending on one shared network
    repro trace    — summarize a recorded run trace (JSONL)
    repro figure   — regenerate one of the paper's figures (2, 6..10)
    repro study    — synthesize and export the bandwidth-trace study
    repro report   — run the full evaluation and write report.md/.json

Examples::

    repro run --algorithm global --servers 8 --config 3
    repro run --algorithm global --trace run.jsonl --chrome-trace run.json
    repro run --algorithm global --faults plan.json
    repro trace run.jsonl
    repro compare --configs 10
    repro chaos --servers 4 --images 12
    repro chaos --emit-plan plan.json
    repro workload --clients 4 --queries 2 --mix global=1,one-shot=1
    repro workload --clients 8 --arrivals open --rate 0.01 --json
    repro figure 8 --configs 6
    repro report --out report/ --configs 30
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.engine.config import Algorithm, substrate_of
from repro.experiments import ExperimentConfig
from repro.experiments.figures import (
    fig6_main_comparison,
    fig7_extra_sites,
    fig8_server_scaling,
    fig9_relocation_period,
    fig10_tree_shape,
)
from repro.experiments.report import generate_report
from repro.experiments.runner import (
    AlgorithmSummary,
    compare_algorithms,
    run_configuration,
    speedup_series,
)


def _setup_from(args: argparse.Namespace, **knobs) -> ExperimentConfig:
    """The one place the CLI's setup flags (and ``--faults``) become knobs."""
    return ExperimentConfig(
        num_servers=args.servers,
        images_per_server=args.images,
        tree_shape=args.tree,
        seed=args.seed,
        relocation_period=args.period,
        fault_plan=_fault_plan(args),
        **knobs,
    )


def _add_setup_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=int, default=8,
                        help="number of data servers (default 8)")
    parser.add_argument("--images", type=int, default=180,
                        help="images per server (default 180, as in the paper)")
    parser.add_argument("--tree", choices=("binary", "left-deep"),
                        default="binary", help="combination order")
    parser.add_argument("--seed", type=int, default=1998,
                        help="master seed (default 1998)")
    parser.add_argument("--period", type=float, default=600.0,
                        help="relocation period in seconds (default 600)")


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel sweep workers (default: $REPRO_WORKERS, else serial; "
             "0 = one per CPU)")


def _add_trace_argument(
    parser: argparse.ArgumentParser,
    *,
    metavar: str = "PATH",
    help_text: str = "record the run's event stream to a JSONL trace",
) -> None:
    """The shared ``--trace`` flag (run, compare and workload)."""
    parser.add_argument("--trace", default=None, metavar=metavar,
                        help=help_text)


def _add_faults_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="inject faults from a JSON fault plan (see docs/robustness.md)")


def _fault_plan(args: argparse.Namespace):
    """The ``--faults`` plan, or None when the flag is absent or unset."""
    if getattr(args, "faults", None) is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.from_json(args.faults)


def cmd_run(args: argparse.Namespace) -> int:
    setup = _setup_from(args)
    tracer = None
    if args.trace or args.chrome_trace:
        from repro.obs import Tracer

        tracer = Tracer()
    metrics = run_configuration(
        setup, args.config, Algorithm(args.algorithm), tracer=tracer
    )
    payload = metrics.summary()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:>24}: {value}")
    if tracer is not None:
        from repro.obs import write_chrome_trace, write_jsonl

        if args.trace:
            count = write_jsonl(tracer, args.trace)
            print(f"{count} trace records written to {args.trace}",
                  file=sys.stderr)
        if args.chrome_trace:
            write_chrome_trace(tracer, args.chrome_trace)
            print(f"Chrome trace written to {args.chrome_trace} "
                  "(load it in Perfetto / chrome://tracing)", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    import numpy as np

    setup = _setup_from(args)
    algorithms = list(Algorithm)
    total = args.configs * len(algorithms)
    done = []
    collected = []

    def progress(index, algorithm, metrics):
        done.append(None)
        collected.append(metrics)
        print(
            f"\r  {len(done)}/{total} simulations",
            end="" if len(done) < total else "\n",
            flush=True,
        )

    if args.trace:
        # Tracing forces a serial sweep: every run gets its own tracer
        # and its own JSONL file in the trace directory.
        from repro.obs import Tracer, write_jsonl

        trace_dir = Path(args.trace)
        trace_dir.mkdir(parents=True, exist_ok=True)
        summaries = {a.value: AlgorithmSummary(a.value) for a in algorithms}
        for index in range(args.configs):
            for algorithm in algorithms:
                tracer = Tracer()
                metrics = run_configuration(setup, index, algorithm, tracer=tracer)
                write_jsonl(
                    tracer, trace_dir / f"config{index}-{algorithm.value}.jsonl"
                )
                summaries[algorithm.value].add(metrics)
                progress(index, algorithm, metrics)
        print(f"per-run traces written to {trace_dir}")
    else:
        summaries = compare_algorithms(
            setup, algorithms, args.configs,
            progress=progress, workers=args.workers,
        )
    if args.out:
        from repro.experiments.persistence import save_runs_csv, save_runs_json

        out = Path(args.out)
        if out.suffix == ".csv":
            save_runs_csv(collected, out)
        else:
            save_runs_json(collected, out)
        print(f"per-run metrics written to {out}")
    baseline = summaries[Algorithm.DOWNLOAD_ALL.value]
    print(f"\n{'algorithm':<14}{'mean speedup':>13}{'median':>9}"
          f"{'mean interarrival (s)':>23}")
    print(f"{'download-all':<14}{1.0:>13.2f}{1.0:>9.2f}"
          f"{baseline.mean_interarrival:>23.1f}")
    for algorithm in algorithms[1:]:
        summary = summaries[algorithm.value]
        speedups = speedup_series(summary, baseline)
        print(
            f"{algorithm.value:<14}{float(np.mean(speedups)):>13.2f}"
            f"{float(np.median(speedups)):>9.2f}"
            f"{summary.mean_interarrival:>23.1f}"
        )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run every algorithm under a fault plan and report resilience."""
    from repro.faults import FaultPlan, reference_chaos_plan

    setup = _setup_from(args)
    if args.plan:
        plan = FaultPlan.from_json(args.plan)
    else:
        plan = reference_chaos_plan(
            setup.all_hosts, seed=args.seed, scale=args.scale
        )
    if args.emit_plan:
        plan.to_json(args.emit_plan)
        print(f"fault plan written to {args.emit_plan}")
        return 0

    setup = replace(setup, fault_plan=plan)
    rows = [
        run_configuration(setup, args.config, algorithm)
        for algorithm in Algorithm
    ]
    if args.json:
        print(json.dumps([m.summary() for m in rows], indent=2))
    else:
        print(
            f"{'algorithm':<14}{'completion':>12}{'retx':>7}"
            f"{'dropKiB':>9}{'aborted':>9}{'down(s)':>9}"
            f"{'probeTO':>9}{'fallback':>10}"
        )
        for m in rows:
            completion = (
                "TRUNCATED" if m.truncated else f"{m.completion_time:.1f}s"
            )
            print(
                f"{m.algorithm:<14}{completion:>12}{m.retransmissions:>7}"
                f"{m.dropped_bytes / 1024.0:>9.1f}{m.aborted_relocations:>9}"
                f"{m.host_downtime_seconds:>9.1f}{m.probe_timeouts:>9}"
                f"{m.planner_fallbacks:>10}"
            )
    return 1 if any(m.truncated for m in rows) else 0


def _parse_mix(text: str) -> dict:
    """``"global=2,one-shot=1"`` -> ``{Algorithm.GLOBAL: 2.0, ...}``.

    The ``--mix`` type: a bad entry is a usage error (exit 2).
    """
    mix = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        try:
            algorithm = Algorithm(name)
        except ValueError:
            valid = ", ".join(a.value for a in Algorithm)
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r} (valid: {valid})"
            ) from None
        try:
            value = float(weight or 1.0)
            if not value > 0:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"weight of {name} must be a positive number, got {weight!r}"
            ) from None
        if algorithm in mix:
            raise argparse.ArgumentTypeError(f"{name} is listed twice")
        mix[algorithm] = value
    if not mix:
        raise argparse.ArgumentTypeError(f"empty query mix: {text!r}")
    return mix


def _print_fleet(fleet: dict) -> None:
    """Human-readable fleet summary (per-query rows when records were kept)."""
    latency = fleet["latency"]
    print(
        f"{fleet['completed']}/{fleet['scheduled']} queries completed "
        f"({fleet['truncated']} truncated) in {fleet['elapsed']:.1f}s"
    )
    if latency["count"]:
        print(
            f"latency: mean {latency['mean']:.1f}s  p50 {latency['p50']:.1f}s"
            f"  p95 {latency['p95']:.1f}s  p99 {latency['p99']:.1f}s"
        )
    print(f"Jain fairness across clients: {fleet['fairness_jain']:.3f}")
    print(
        f"relocations: {fleet['relocations']['total']} "
        f"({fleet['relocations']['per_query_mean']:.2f}/query)"
    )
    coordination = fleet.get("fleet")
    if coordination:
        print(
            f"fleet planner: {coordination['grants']} relocations granted / "
            f"{coordination['denies']} denied "
            f"({coordination['grant_rate']:.0%} grant rate), "
            f"{coordination['rebalances']} rebalances, "
            f"{coordination['planner_candidates']} candidates evaluated"
        )
    resilience = fleet.get("resilience")
    if resilience:
        breaker = resilience["breaker"]
        print(
            f"overload: shed {resilience['shed']} "
            f"({resilience['shed_rate']:.0%}), queued {resilience['queued']} "
            f"(peak {resilience['queue_peak']}), deadline aborts "
            f"{resilience['deadline_aborts']} "
            f"({resilience['deadline_miss_rate']:.0%}), retries "
            f"{resilience['retries']}, goodput "
            f"{resilience['goodput'] * 3600:.1f} queries/h"
        )
        if breaker["opens"]:
            hosts = ", ".join(sorted(breaker["hosts"]))
            print(
                f"breakers: {breaker['opens']} opened / "
                f"{breaker['closes']} closed ({hosts}); "
                f"{resilience['degraded']} queries degraded"
            )
        for name, entry in resilience["per_class"].items():
            if entry["slo_attainment"] is not None:
                print(
                    f"SLO {name}: {entry['slo_attainment']:.0%} of "
                    f"{entry['slo_eligible']} completed queries"
                )
    clients = fleet["clients"]
    quantiles = (
        "exact" if "queries" in fleet
        else f"within ±{fleet['relative_error']:.0%}"
    )
    print(
        f"{clients['active']}/{clients['total']} clients active, "
        f"latency quantiles {quantiles}"
    )
    print(f"\n{'class':<14}{'launched':>10}{'completed':>11}"
          f"{'p50':>9}{'p99':>9}")
    for name, entry in fleet["per_class"].items():
        block = entry["latency"]
        p50 = "-" if block["p50"] is None else f"{block['p50']:.1f}s"
        p99 = "-" if block["p99"] is None else f"{block['p99']:.1f}s"
        print(
            f"{name:<14}{entry['launched']:>10}{entry['completed']:>11}"
            f"{p50:>9}{p99:>9}"
        )
    queries = fleet.get("queries", [])
    if queries:
        print(f"\n{'query':<8}{'class':<14}{'algorithm':<14}"
              f"{'issued':>9}{'latency':>10}{'reloc':>7}")
    for query in queries:
        latency_s = (
            "TRUNC" if query["latency"] is None
            else f"{query['latency']:.1f}s"
        )
        print(
            f"{query['query_id']:<8}{query['class']:<14}"
            f"{query['algorithm']:<14}{query['issued_at']:>9.1f}"
            f"{latency_s:>10}{query['relocations']:>7}"
        )
    busiest = sorted(
        fleet["links"].items(),
        key=lambda kv: kv[1]["utilization"],
        reverse=True,
    )[:5]
    if busiest:
        print(f"\n{'link':<16}{'MiB':>9}{'transfers':>11}{'util':>7}")
        for name, entry in busiest:
            print(
                f"{name:<16}{entry['bytes'] / 2**20:>9.1f}"
                f"{entry['transfers']:>11}{entry['utilization']:>7.2f}"
            )


def _overload_policy(args: argparse.Namespace):
    """An :class:`OverloadPolicy` from the CLI flags, or None at defaults."""
    from repro.workload import OverloadPolicy

    policy = OverloadPolicy(
        max_concurrent=args.max_concurrent,
        max_queue_depth=args.queue_depth,
        shed_probability=args.shed_probability,
        retry_budget=args.retry_budget,
        retry_backoff=args.retry_backoff,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    return None if policy.is_null() else policy


def _fleet_policy(args: argparse.Namespace):
    """A :class:`FleetPolicy` from the CLI flags, or None when off."""
    if args.fleet_planner == "none":
        return None
    from repro.workload import FleetPolicy

    return FleetPolicy(
        mode=args.fleet_planner,
        link_tokens=args.fleet_tokens,
        token_refill_seconds=args.fleet_refill,
        seed=args.seed,
    )


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload import (
        ClosedLoop,
        OpenLoop,
        QueryClass,
        WorkloadSpec,
        run_workload,
        run_workload_sharded,
    )

    if args.arrivals == "open":
        arrivals = OpenLoop(rate=args.rate, process=args.process)
    else:
        arrivals = ClosedLoop(think_time=args.think, process=args.process)
    if args.chaos and args.faults:
        raise SystemExit("--chaos and --faults are mutually exclusive")
    setup = _setup_from(args, max_sim_time=args.max_time)
    if args.chaos:
        from repro.faults import reference_chaos_plan

        setup = replace(
            setup,
            fault_plan=reference_chaos_plan(
                setup.all_hosts, seed=args.seed, scale=args.chaos_scale
            ),
        )
    classes = tuple(
        QueryClass(
            name=algorithm.value,
            algorithm=algorithm,
            weight=weight,
            overrides={"relocation_period": args.period},
        )
        for algorithm, weight in args.mix.items()
    )
    if args.deadline is not None or args.slo is not None:
        classes = tuple(
            replace(qclass, deadline=args.deadline, slo_target=args.slo)
            for qclass in classes
        )
    spec = WorkloadSpec(
        classes=classes,
        num_clients=args.clients,
        queries_per_client=args.queries,
        arrivals=arrivals,
        seed=args.seed,
        config_index=args.config,
        overload=_overload_policy(args),
        fleet=_fleet_policy(args),
        **substrate_of(setup),
    )
    if args.trace and args.trace_dir:
        raise SystemExit("--trace and --trace-dir are mutually exclusive")
    if args.shards > 1 and (args.trace or args.trace_dir):
        raise SystemExit(
            "tracing a sharded run is unsupported: each shard is its own "
            "process; drop --shards or the trace flag"
        )
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    elif args.trace_dir:
        from repro.obs import StreamingTracer

        tracer = StreamingTracer(
            args.trace_dir,
            max_segment_bytes=args.segment_bytes,
            max_segments=args.max_segments,
        )
    if args.shards > 1:
        result = run_workload_sharded(spec, args.shards, workers=args.workers)
    else:
        result = run_workload(spec, tracer=tracer)
    fleet = result.fleet
    if args.json:
        print(json.dumps(fleet, indent=2))
    else:
        _print_fleet(fleet)
    if tracer is not None:
        if args.trace:
            from repro.obs import write_jsonl

            count = write_jsonl(tracer, args.trace)
            print(f"{count} trace records written to {args.trace}",
                  file=sys.stderr)
        else:
            tracer.close()
            writer = tracer.writer
            print(
                f"{writer.records_written} trace records written to "
                f"{len(writer.segment_paths)} segments under "
                f"{args.trace_dir} ({writer.segments_dropped} dropped)",
                file=sys.stderr,
            )
    return 1 if fleet["truncated"] else 0


def cmd_figure(args: argparse.Namespace) -> int:
    setup = _setup_from(args)
    number = args.number
    if number == 2:
        from repro.traces import trace_stats
        from repro.traces.stats import library_change_interval

        library = setup.trace_library()
        stats = trace_stats(library.trace("wisc", "ucla"))
        print(f"wisc~ucla: mean {stats.mean_rate / 1024:.1f} KB/s, "
              f"cv {stats.cv:.2f}, {stats.n_changes} significant changes")
        print(f"mean >=10% change interval across the library: "
              f"{library_change_interval(library.all_traces()):.0f} s "
              "(paper: ~120 s)")
        return 0
    workers = args.workers
    producers = {
        6: lambda: fig6_main_comparison(
            setup, n_configs=args.configs, workers=workers),
        7: lambda: fig7_extra_sites(
            setup, n_configs=args.configs, workers=workers),
        8: lambda: fig8_server_scaling(
            setup, n_configs=args.configs, workers=workers),
        9: lambda: fig9_relocation_period(
            setup, n_configs=args.configs, workers=workers),
        10: lambda: fig10_tree_shape(
            setup, n_configs=args.configs, workers=workers),
    }
    result = producers[number]()
    print(result.format_table())
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    from repro.traces import InternetStudy, save_library_json
    from repro.traces.stats import library_change_interval

    library = InternetStudy(seed=args.seed).run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trace_library.json"
    save_library_json(library, path)
    print(f"{len(library)} host-pair traces written to {path}")
    print(f"mean >=10% change interval: "
          f"{library_change_interval(library.all_traces()):.0f} s")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        format_trace_summary,
        read_jsonl,
        read_segments,
        summarize_records,
        write_chrome_trace,
    )

    source = Path(args.file)
    if not source.exists():
        print(f"repro trace: no such file or directory: {source}",
              file=sys.stderr)
        return 2
    if source.is_dir():
        # A --trace-dir segment directory streams; only the Chrome
        # export needs every record at once.
        records = read_segments(source)
        if args.chrome:
            records = list(records)
    else:
        records = read_jsonl(source)
    print(format_trace_summary(summarize_records(records)))
    if args.chrome:
        write_chrome_trace(records, args.chrome)
        print(f"Chrome trace written to {args.chrome} "
              "(load it in Perfetto / chrome://tracing)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = replace(
        _setup_from(args), n_configs=args.configs, workers=args.workers
    )
    generate_report(config, out_dir=args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adapting to Bandwidth Variations in "
        "Wide-Area Data Combination' (ICDCS 1998).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one algorithm on one configuration")
    _add_setup_arguments(run)
    run.add_argument("--algorithm", choices=[a.value for a in Algorithm],
                     default="global")
    run.add_argument("--config", type=int, default=0,
                     help="network-configuration index (default 0)")
    run.add_argument("--json", action="store_true", help="JSON output")
    _add_trace_argument(run)
    run.add_argument("--chrome-trace", default=None, metavar="PATH",
                     help="also export a Chrome trace_event file "
                          "(Perfetto-loadable)")
    _add_faults_argument(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="all four algorithms, N configs")
    _add_setup_arguments(compare)
    _add_workers_argument(compare)
    compare.add_argument("--configs", type=int, default=5)
    compare.add_argument("--out", default=None,
                         help="archive per-run metrics (.json or .csv)")
    _add_trace_argument(
        compare, metavar="DIR",
        help_text="record one JSONL trace per run into DIR "
                  "(forces a serial sweep)")
    _add_faults_argument(compare)
    compare.set_defaults(func=cmd_compare)

    chaos = sub.add_parser(
        "chaos",
        help="all four algorithms under a fault plan (resilience check)",
    )
    _add_setup_arguments(chaos)
    chaos.add_argument("--config", type=int, default=0,
                       help="network-configuration index (default 0)")
    chaos.add_argument("--plan", default=None, metavar="PLAN.json",
                       help="fault plan to inject (default: the built-in "
                            "reference chaos plan)")
    chaos.add_argument("--emit-plan", default=None, metavar="PATH",
                       help="write the plan JSON and exit without running")
    chaos.add_argument("--scale", type=int, default=1,
                       help="grow the reference plan with extra staggered "
                            "outage/crash waves (default 1: the classic "
                            "plan; ignored with --plan)")
    chaos.add_argument("--json", action="store_true", help="JSON output")
    chaos.set_defaults(func=cmd_chaos)

    workload = sub.add_parser(
        "workload",
        help="N concurrent queries contending on one shared network",
    )
    _add_setup_arguments(workload)
    workload.add_argument("--clients", type=int, default=4,
                          help="client population size (default 4)")
    workload.add_argument("--queries", type=int, default=2,
                          help="queries per client (default 2)")
    workload.add_argument(
        "--mix", default="global=1,one-shot=1", type=_parse_mix,
        metavar="ALGO=W,...",
        help="weighted query mix, e.g. global=2,one-shot=1 "
             "(default global=1,one-shot=1)")
    workload.add_argument("--arrivals", choices=("closed", "open"),
                          default="closed",
                          help="arrival discipline (default closed-loop)")
    workload.add_argument("--think", type=float, default=0.0,
                          help="closed-loop think time in seconds (default 0)")
    workload.add_argument("--rate", type=float, default=0.01,
                          help="open-loop arrival rate per client, "
                               "queries/s (default 0.01)")
    workload.add_argument("--process", choices=("fixed", "poisson"),
                          default="fixed",
                          help="think/inter-arrival distribution "
                               "(default fixed)")
    workload.add_argument("--config", type=int, default=0,
                          help="network-configuration index (default 0)")
    workload.add_argument("--max-time", type=float, default=10 * 86400.0,
                          help="truncate the fleet at this sim time")
    workload.add_argument("--json", action="store_true",
                          help="print the full fleet summary as JSON")
    _add_workers_argument(workload)
    workload.add_argument("--shards", type=int, default=1,
                          help="client-hash shard the fleet across this "
                               "many processes (default 1: unsharded)")
    _add_trace_argument(
        workload,
        help_text="record the query_id-tagged event stream "
                  "to a JSONL trace")
    workload.add_argument("--trace-dir", default=None, metavar="DIR",
                          help="stream the event stream to rotating JSONL "
                               "segments under DIR (bounded memory)")
    workload.add_argument("--segment-bytes", type=int,
                          default=8 * 1024 * 1024,
                          help="rotate --trace-dir segments at this size "
                               "(default 8 MiB)")
    workload.add_argument("--max-segments", type=int, default=None,
                          help="keep at most this many --trace-dir "
                               "segments, pruning the oldest")
    _add_faults_argument(workload)
    workload.add_argument("--chaos", action="store_true",
                          help="inject the built-in reference chaos plan "
                               "over the fleet's hosts (same plan as "
                               "`repro chaos`; mutually exclusive with "
                               "--faults)")
    workload.add_argument("--chaos-scale", type=int, default=1,
                          metavar="N",
                          help="with --chaos: add N-1 extra staggered "
                               "outage/crash waves for long fleet runs "
                               "(default 1)")
    overload = workload.add_argument_group(
        "overload protection",
        "fleet-level admission control, deadlines, retry budgets and "
        "circuit breakers; everything defaults off (see "
        "docs/robustness.md)")
    overload.add_argument("--max-concurrent", type=int, default=None,
                          metavar="N",
                          help="admit at most N queries at once; excess "
                               "arrivals queue or are shed")
    overload.add_argument("--queue-depth", type=int, default=0,
                          metavar="N",
                          help="with --max-concurrent: queue up to N "
                               "arrivals before shedding (default 0)")
    overload.add_argument("--shed-probability", type=float, default=0.0,
                          metavar="P",
                          help="with --max-concurrent: shed queueable "
                               "arrivals with seeded probability P")
    overload.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="abort any query older than this (measured "
                               "from arrival, queueing included)")
    overload.add_argument("--slo", type=float, default=None,
                          metavar="SECONDS",
                          help="latency SLO target; the summary reports "
                               "per-class attainment")
    overload.add_argument("--retry-budget", type=int, default=0,
                          metavar="N",
                          help="resubmit shed/aborted queries up to N "
                               "times per client")
    overload.add_argument("--retry-backoff", type=float, default=30.0,
                          metavar="SECONDS",
                          help="wait this long before each retry "
                               "(default 30)")
    overload.add_argument("--breaker-threshold", type=int, default=None,
                          metavar="N",
                          help="open a per-host circuit breaker after N "
                               "failures involving a down host; affected "
                               "queries replan degraded")
    overload.add_argument("--breaker-cooldown", type=float, default=600.0,
                          metavar="SECONDS",
                          help="close an open breaker after this long "
                               "(default 600)")
    fleet = workload.add_argument_group(
        "fleet coordination",
        "joint placement across concurrent queries: planners see "
        "contention-adjusted residual bandwidth and relocations pass "
        "a deterministic per-link token-bucket arbiter; defaults off "
        "(see docs/fleet.md)")
    fleet.add_argument("--fleet-planner",
                       choices=("none", "coordinated", "fair"),
                       default="none",
                       help="wrap every per-query planner with the fleet "
                            "coordinator; 'fair' biases relocation grants "
                            "toward the worst latency-to-SLO query "
                            "(default none: blind per-query planning)")
    fleet.add_argument("--fleet-tokens", type=float, default=2.0,
                       metavar="N",
                       help="token-bucket capacity per link/host "
                            "(default 2)")
    fleet.add_argument("--fleet-refill", type=float, default=120.0,
                       metavar="SECONDS",
                       help="seconds to regenerate one relocation token "
                            "(default 120)")
    workload.set_defaults(func=cmd_workload)

    trace = sub.add_parser(
        "trace", help="summarize a recorded run trace (JSONL)"
    )
    trace.add_argument(
        "file",
        help="JSONL trace written by --trace, or a segment directory "
        "written by --trace-dir",
    )
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also convert to a Chrome trace_event file")
    trace.set_defaults(func=cmd_trace)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("number", type=int, choices=(2, 6, 7, 8, 9, 10))
    _add_setup_arguments(figure)
    _add_workers_argument(figure)
    figure.add_argument("--configs", type=int, default=10)
    figure.set_defaults(func=cmd_figure)

    study = sub.add_parser("study", help="export the bandwidth-trace study")
    study.add_argument("--seed", type=int, default=1998)
    study.add_argument("--out", default="study_output")
    study.set_defaults(func=cmd_study)

    report = sub.add_parser("report", help="full evaluation -> report.md/json")
    _add_setup_arguments(report)
    _add_workers_argument(report)
    report.add_argument("--configs", type=int, default=30)
    report.add_argument("--out", default="report")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
