"""The benchmark's adapter to the simulator: the only module importing ``repro``.

It holds the four workloads (what one op calls, how its inputs derive
from the seed, what a correct output looks like) and the seam table the
traced pass wraps.  Everything is built with the simulator's default
settings; a change to the configuration surface should only have to
touch this file.

Each workload is a *cycle* of op slots that repeats until the run's time
is up.  A slot fixes the network configuration (drawn from the default
Internet study, master seed 1998, as in the paper's Fig-6 setup) and,
for single runs, the algorithm; ``--seed`` and the cycle's round number
drive everything else: image sizes, the local algorithm's candidate
draws, arrival times, query mixes and fault-plan loss streams.  Every
cycle therefore does the same mix of work on fresh inputs, and the
timing statistics, taken over whole cycles, compare like with like.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

import repro

SRC = Path(__file__).resolve().parents[1] / "src"
if Path(repro.__file__).resolve().parent != SRC / "repro":
    raise ImportError(
        f"benchmarking {repro.__file__}, not the source tree under {SRC}"
    )

import repro.experiments.config as experiments_config
import repro.experiments.runner as experiments_runner
import repro.monitor.system as monitor_system
import repro.obs.exporters as obs_exporters
import repro.obs.summary as obs_summary
import repro.placement.download_all as placement_download_all
import repro.placement.local_rules as placement_local_rules
import repro.placement.one_shot as placement_one_shot
import repro.workload.spec as workload_spec
from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.critical import BatchMoveEvaluator
from repro.dataflow.tree import complete_binary_tree
from repro.engine.config import Algorithm
from repro.engine.metrics import RunMetrics
from repro.experiments import ExperimentConfig
from repro.faults import FaultInjector, reference_chaos_plan
from repro.fleet import FleetCoordinator, FleetPolicy
from repro.monitor.system import MonitoringSystem
from repro.net.link import Link
from repro.net.network import Network
from repro.obs import NullTracer, ScopedTracer, Tracer
from repro.placement import planner_for, planner_registry
from repro.sim import Callback, Environment, Process
from repro.traces.trace import BandwidthTrace
from repro.workload import (
    ClosedLoop,
    ExactFleetMetrics,
    MetricsSink,
    OpenLoop,
    OverloadController,
    OverloadPolicy,
    QueryClass,
    StreamingFleetMetrics,
    WorkloadSpec,
    run_workload,
)

#: The ``repro`` packages the traced pass attributes host time to.
LAYERS = (
    "sim",
    "net",
    "traces",
    "monitor",
    "engine",
    "placement",
    "dataflow",
    "fleet",
    "workload",
    "faults",
    "obs",
    "experiments",
)

#: Paper order of the paired comparison (download-all first: it is the
#: baseline every speedup divides by).
ALGORITHMS = (
    Algorithm.DOWNLOAD_ALL,
    Algorithm.ONE_SHOT,
    Algorithm.LOCAL,
    Algorithm.GLOBAL,
)


def derive_seed(seed: int, *parts: Any) -> int:
    """A 31-bit seed from the run seed and a path of labels."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def _hash(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class OpResult:
    """What one op produced, reduced to what the benchmark checks and counts."""

    #: Empty when every per-op check passed.
    problem: str
    digest: str
    #: Simulated latency of each completed query.
    latencies: list[float]
    scheduled: int
    completed: int
    wire_bytes: float
    #: Simulator-side counts (transfers, probes, planner effort, ...).
    counts: dict[str, float] = field(default_factory=dict)
    #: (pair, algorithm, completion time) for the paired comparison; a
    #: pair is one configuration's four runs in one cycle.
    paired: Optional[tuple[int, str, float]] = None


def _run_counts(metrics_list) -> dict[str, float]:
    counts = dict.fromkeys(
        (
            "transfers",
            "fluid_transfers",
            "des_transfers",
            "retransmissions",
            "probes",
            "relocations",
            "planner_runs",
            "placements_installed",
            "planner_candidates",
        ),
        0,
    )
    for m in metrics_list:
        counts["transfers"] += m.transfers
        counts["fluid_transfers"] += m.fluid_transfers
        counts["des_transfers"] += m.des_transfers
        counts["retransmissions"] += m.retransmissions
        counts["probes"] += m.probes_sent
        counts["relocations"] += m.relocations
        counts["planner_runs"] += m.planner_runs
        counts["placements_installed"] += m.placements_installed
        counts["planner_candidates"] += m.planner_candidates
    return counts


def _same_summary(live: dict, replayed: dict) -> bool:
    for key, value in live.items():
        other = replayed.get(key)
        if isinstance(value, float) and math.isnan(value):
            if not (isinstance(other, float) and math.isnan(other)):
                return False
        elif other != value:
            return False
    return True


class Workload:
    """One benchmark workload: op inputs from the seed, the op, its checks."""

    name = ""
    #: Op slots per cycle; runs measure whole cycles.  The slots' costs
    #: differ by configuration, so where the workload allows, an odd
    #: count keeps the median op inside one slot's spread instead of in
    #: the gap between two.
    cycle = 0
    #: Ops of the simulation window, from op 0: the sim_* metrics, the
    #: digest and the workload-level checks come from it, so they are
    #: deterministic for a seed.  Every run completes it.  It takes about
    #: 11 s on the reference machine: the more queries it averages
    #: over, the less the sim_* metrics move between seeds.
    window = 0
    #: Ops, from op 0, that the traced pass runs untraced and then traced.
    traced_ops = 0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def prepare(self, index: int) -> Callable[[], Any]:
        """The zero-argument op for ``index`` (built outside the timing)."""
        raise NotImplementedError

    def inspect(self, index: int, output: Any) -> OpResult:
        """Check one op's output and reduce it to an :class:`OpResult`."""
        raise NotImplementedError

    def check(self, results: list[OpResult]) -> dict[str, bool]:
        """Workload-level checks over the simulation window."""
        return {}


class _SingleRunWorkload(Workload):
    """Ops are ``run_configuration`` calls over configs x algorithms."""

    setup_kwargs: dict[str, Any] = {}

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.setup = ExperimentConfig(**self.setup_kwargs)
        self.setup.trace_library()

    def _slot(self, index: int) -> tuple[int, Algorithm, int]:
        round_, position = divmod(index, self.cycle)
        config = position // len(ALGORITHMS)
        # One image workload per configuration and round: the four
        # algorithms are compared on identical inputs, as in the paper.
        workload_seed = derive_seed(self.seed, self.name, round_, config)
        return config, ALGORITHMS[position % len(ALGORITHMS)], workload_seed

    def _check_run(self, metrics: RunMetrics) -> str:
        if metrics.truncated:
            return "run truncated"
        if len(metrics.arrival_times) != self.setup.images_per_server:
            return (
                f"{len(metrics.arrival_times)} of "
                f"{self.setup.images_per_server} images delivered"
            )
        return ""

    def _result(self, index: int, metrics: RunMetrics, problem: str) -> OpResult:
        _, algorithm, _ = self._slot(index)
        completed = not metrics.truncated
        return OpResult(
            problem=problem,
            digest=_hash([metrics.summary(), metrics.arrival_times]),
            latencies=[metrics.completion_time] if completed else [],
            scheduled=1,
            completed=int(completed),
            wire_bytes=metrics.bytes_on_wire,
            counts=_run_counts([metrics]),
            paired=(index // len(ALGORITHMS), algorithm.value, metrics.completion_time),
        )


class PaperSweep(_SingleRunWorkload):
    """The Fig-6 paired comparison at paper scale (8 servers x 180 images)."""

    name = "paper-sweep"
    cycle = 3 * len(ALGORITHMS)
    window = 4 * cycle
    traced_ops = 2 * cycle
    setup_kwargs = dict(
        num_servers=8, images_per_server=180, relocation_period=600.0
    )

    def prepare(self, index: int) -> Callable[[], Any]:
        config, algorithm, workload_seed = self._slot(index)
        setup = self.setup
        return lambda: experiments_runner.run_configuration(
            setup,
            config,
            algorithm,
            workload_seed=workload_seed,
            control_seed=workload_seed,
        )

    def inspect(self, index: int, output: RunMetrics) -> OpResult:
        return self._result(index, output, self._check_run(output))

    def check(self, results: list[OpResult]) -> dict[str, bool]:
        """The paper's ordering: online relocation beats download-all, and
        global is at least as good as one-shot.

        Speedups over download-all are averaged geometrically over the
        window's pairs.  With three configurations the median is not
        robust: one configuration favours one-shot, and the medians of
        global and one-shot came within 0.5 % of each other.
        """
        pairs: dict[int, dict[str, float]] = {}
        for result in results:
            pair, algorithm, completion = result.paired
            pairs.setdefault(pair, {})[algorithm] = completion
        complete = [p for p in pairs.values() if len(p) == len(ALGORITHMS)]
        if not complete:
            return {"paper_ordering": False}

        def speedup(algorithm: str) -> float:
            return statistics.geometric_mean(
                p["download-all"] / p[algorithm] for p in complete
            )

        ordering = (
            speedup("local") > 1.0
            and speedup("global") > 1.0
            and speedup("global") >= speedup("one-shot")
        )
        return {"paper_ordering": ordering}


class TracedReplay(_SingleRunWorkload):
    """One small run with the program's tracer on, exported and replayed."""

    name = "traced-replay"
    cycle = 5 * len(ALGORITHMS)
    window = 7 * cycle
    traced_ops = cycle
    setup_kwargs = dict(num_servers=4, images_per_server=60)

    def prepare(self, index: int) -> Callable[[], Any]:
        config, algorithm, workload_seed = self._slot(index)
        setup = self.setup
        path = self.scratch / "traced-replay.jsonl"

        def op():
            tracer = Tracer()
            live = experiments_runner.run_configuration(
                setup,
                config,
                algorithm,
                tracer=tracer,
                workload_seed=workload_seed,
                control_seed=workload_seed,
            )
            obs_exporters.write_jsonl(tracer, path)
            records = obs_exporters.read_jsonl(path)
            replayed = RunMetrics.from_trace(records)
            summary = obs_summary.summarize_records(records)
            return live, replayed, summary, len(records), os.path.getsize(path)

        return op

    def inspect(self, index: int, output) -> OpResult:
        live, replayed, summary, records, size = output
        problem = self._check_run(live)
        if not problem and not (
            _same_summary(live.summary(), replayed.summary())
            and replayed.arrival_times == live.arrival_times
        ):
            problem = "trace replay differs from the live metrics"
        if not problem and not summary.event_histogram:
            problem = "trace summary is empty"
        result = self._result(index, live, problem)
        result.counts["obs_records"] = records
        result.counts["obs_jsonl_bytes"] = size
        return result


class _FleetWorkload(Workload):
    """Ops are ``run_workload`` calls on a fleet spec; slot = configuration."""

    def spec(self, index: int) -> WorkloadSpec:
        raise NotImplementedError

    def _slot(self, index: int, *labels: str) -> tuple[int, int]:
        """(configuration, seed) of op ``index``; ``labels`` name the stream."""
        round_, config = divmod(index, self.cycle)
        return config, derive_seed(self.seed, self.name, *labels, round_, config)

    def prepare(self, index: int) -> Callable[[], Any]:
        spec = self.spec(index)
        return lambda: run_workload(spec)

    def _result(self, output, problem: str) -> OpResult:
        fleet = output.fleet
        block = fleet.get("fleet", {})
        counts = _run_counts([q.metrics for q in output.queries])
        counts["grants"] = block.get("grants", 0)
        counts["denies"] = block.get("denies", 0)
        return OpResult(
            problem=problem,
            digest=_hash(fleet),
            latencies=[q.latency for q in output.queries if q.latency is not None],
            scheduled=fleet["scheduled"],
            completed=fleet["completed"],
            wire_bytes=fleet["bytes_on_wire"],
            counts=counts,
        )


class ReplanFleet(_FleetWorkload):
    """A closed-loop fleet of global queries replanning through the arbiter."""

    name = "replan-fleet"
    cycle = 11
    window = 7 * cycle
    traced_ops = 2 * cycle

    def spec(self, index: int) -> WorkloadSpec:
        config, seed = self._slot(index)
        return WorkloadSpec(
            classes=(
                QueryClass(
                    name="global",
                    algorithm=Algorithm.GLOBAL,
                    overrides={"relocation_period": 30.0},
                ),
            ),
            num_clients=4,
            queries_per_client=1,
            arrivals=ClosedLoop(),
            seed=seed,
            num_servers=4,
            images_per_server=12,
            config_index=config,
            fleet=FleetPolicy(
                mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
            ),
        )

    def inspect(self, index: int, output) -> OpResult:
        fleet = output.fleet
        problem = ""
        if fleet["completed"] != fleet["scheduled"]:
            problem = f"{fleet['completed']} of {fleet['scheduled']} queries completed"
        return self._result(output, problem)

    def check(self, results: list[OpResult]) -> dict[str, bool]:
        rulings = sum(r.counts["grants"] + r.counts["denies"] for r in results)
        return {"arbiter_engaged": rulings > 0}


class ChaosFleet(_FleetWorkload):
    """An open-loop fleet under the reference chaos plan and overload limits."""

    name = "chaos-fleet"
    cycle = 11
    window = 7 * cycle
    traced_ops = 2 * cycle

    def spec(self, index: int) -> WorkloadSpec:
        config, seed = self._slot(index)
        deadline = 7200.0
        spec = WorkloadSpec(
            classes=(
                QueryClass(
                    name="one-shot", algorithm=Algorithm.ONE_SHOT, deadline=deadline
                ),
                QueryClass(name="local", algorithm=Algorithm.LOCAL, deadline=deadline),
            ),
            num_clients=8,
            queries_per_client=2,
            arrivals=OpenLoop(rate=0.01, process="poisson"),
            seed=seed,
            num_servers=4,
            images_per_server=12,
            config_index=config,
            overload=OverloadPolicy(
                max_concurrent=4,
                max_queue_depth=8,
                retry_budget=1,
                breaker_threshold=2,
                breaker_cooldown=600.0,
            ),
        )
        plan = reference_chaos_plan(spec.all_hosts, seed=self._slot(index, "faults")[1])
        return replace(spec, fault_plan=plan)

    def inspect(self, index: int, output) -> OpResult:
        fleet = output.fleet
        resilience = fleet["resilience"]
        problem = ""
        if (
            resilience["shed"] + fleet["launched"] - resilience["retries"]
            != fleet["scheduled"]
        ):
            problem = "shed + launched - retries != scheduled"
        return self._result(output, problem)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PaperSweep, ReplanFleet, ChaosFleet, TracedReplay)
}


# -- the traced pass's seams ---------------------------------------------------
def _layer_resolver(recorder) -> Callable[[Any], int]:
    """Map a code object to the recorder index of its ``repro`` package."""
    cache: dict[Any, int] = {}
    index = recorder.index

    def layer_of(code) -> int:
        layer = cache.get(code)
        if layer is None:
            parts = Path(code.co_filename).parts
            if "repro" not in parts:
                raise ValueError(f"kernel dispatched into non-repro code {code!r}")
            rest = parts[len(parts) - parts[::-1].index("repro") :]
            package = rest[0].removesuffix(".py")
            if package not in index:
                raise ValueError(f"kernel dispatched into unknown layer {package!r}")
            layer = cache[code] = index[package]
        return layer

    return layer_of


def _callback_code(fn):
    fn = getattr(fn, "func", fn)
    fn = getattr(fn, "__func__", fn)
    return fn.__code__


def _defining_class(cls: type, name: str) -> type:
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    raise AttributeError(f"seam {cls.__name__}.{name} no longer exists")


def _public_methods(cls: type) -> list[str]:
    return sorted(
        name
        for name, raw in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(raw) or isinstance(raw, (staticmethod, classmethod)))
    )


def _planner_classes() -> list[type]:
    """The class behind every name in the planner registry."""
    tree = complete_binary_tree(2)
    model = CostModel(tree, expected_output_sizes(tree, 1024.0, 0.0))
    hosts = ["h0", "h1", "client"]
    classes = {type(planner_for(name, tree, hosts, model)) for name in planner_registry()}
    return sorted(classes, key=lambda c: c.__qualname__)


def _count_events(counters, args, result, seconds) -> None:
    # One Environment.run per environment in every op, so the lifetime
    # count is this call's count.
    counters["sim.events"] = counters.get("sim.events", 0) + args[0].events_processed


def _count_decode(counters, args, merged, seconds) -> None:
    counters["monitor.decode_s"] = counters.get("monitor.decode_s", 0.0) + seconds
    counters["monitor.decode_calls"] = counters.get("monitor.decode_calls", 0) + 1
    counters["monitor.offered"] = counters.get("monitor.offered", 0) + len(
        args[1].get("entries", ())
    )
    counters["monitor.merged"] = counters.get("monitor.merged", 0) + merged


@dataclass(frozen=True)
class Seam:
    """One wrapped attribute: ``owner.attr`` recorded as ``layer``."""

    layer: str
    owner: Any
    attr: str
    on_return: Optional[Callable] = None
    #: "process" / "callback": the layer is the package of the code the
    #: kernel resumes, not ``layer``.
    dispatch: str = ""

    @property
    def label(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


def seam_table() -> list[Seam]:
    """Every seam the traced pass wraps, resolved against the current code."""
    seams = [
        Seam("sim", Environment, "run", on_return=_count_events),
        Seam("sim", Process, "_resume", dispatch="process"),
        Seam("sim", Callback, "_invoke", dispatch="callback"),
        Seam("net", Network, "send"),
        Seam("net", Network, "post"),
        Seam("traces", Link, "transmission_time"),
        Seam("traces", BandwidthTrace, "transfer_time"),
        Seam("traces", BandwidthTrace, "mean_rate"),
        Seam("monitor", MonitoringSystem, "estimate"),
        Seam("monitor", MonitoringSystem, "probe"),
        Seam("monitor", MonitoringSystem, "_observe"),
        Seam("monitor", MonitoringSystem, "_piggyback_source"),
        Seam("monitor", MonitoringSystem, "_piggyback_sink"),
        Seam("monitor", monitor_system, "encode_piggyback"),
        Seam("monitor", monitor_system, "decode_piggyback", on_return=_count_decode),
        Seam("dataflow", placement_one_shot, "critical_path"),
        Seam("dataflow", placement_local_rules, "placement_cost"),
        Seam("dataflow", placement_download_all, "placement_cost"),
        Seam("dataflow", BatchMoveEvaluator, "price_moves"),
        Seam("dataflow", BatchMoveEvaluator, "critical_path"),
        Seam("faults", FaultInjector, "link_blocked"),
        Seam("faults", FaultInjector, "has_loss"),
        Seam("faults", FaultInjector, "next_boundary"),
        Seam("faults", FaultInjector, "drop_message"),
        # The disabled and scoped tracers too: an untraced run's calls
        # on them are what obs.calls_per_op counts outside traced-replay.
        *(
            Seam("obs", tracer, attr)
            for tracer in (Tracer, NullTracer, ScopedTracer)
            for attr in ("emit", "span", "incr", "observe", "kernel_hook")
        ),
        Seam("obs", obs_exporters, "write_jsonl"),
        Seam("obs", obs_exporters, "read_jsonl"),
        Seam("obs", RunMetrics, "from_trace"),
        Seam("obs", obs_summary, "summarize_records"),
        Seam("experiments", experiments_runner, "build_spec"),
        Seam("experiments", experiments_config, "sample_config"),
        Seam("experiments", workload_spec, "make_configuration"),
    ]
    for cls in _planner_classes():
        for attr in ("plan", "decide"):
            if hasattr(cls, attr):
                seams.append(Seam("placement", _defining_class(cls, attr), attr))
    seams += [Seam("fleet", FleetCoordinator, a) for a in _public_methods(FleetCoordinator)]
    seams += [
        Seam("workload", OverloadController, a)
        for a in _public_methods(OverloadController)
    ]
    sink_methods = [*_public_methods(MetricsSink), "observe"]
    for sink in (ExactFleetMetrics, StreamingFleetMetrics):
        seams += [Seam("workload", _defining_class(sink, a), a) for a in sink_methods]
    unique: dict[tuple[int, str], Seam] = {}
    for seam in seams:
        unique.setdefault((id(seam.owner), seam.attr), seam)
    return list(unique.values())


class InstalledSeams:
    """Wrappers installed on every seam; :meth:`restore` puts the originals back."""

    def __init__(self, recorder, seams: Optional[list[Seam]] = None) -> None:
        self.originals: list[tuple[Any, str, Any]] = []
        layer_of = _layer_resolver(recorder)
        resolvers = {
            "process": lambda proc: layer_of(proc._generator.gi_code),
            "callback": lambda event: layer_of(_callback_code(event._fn)),
        }
        try:
            for seam in seams if seams is not None else seam_table():
                raw = vars(seam.owner).get(seam.attr)
                if raw is None:
                    raise AttributeError(f"seam {seam.label} no longer exists")
                self.originals.append((seam.owner, seam.attr, raw))
                kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                fn = raw.__func__ if kind is not None else raw
                wrapped = recorder.wrap(
                    fn,
                    seam.layer,
                    seam.label,
                    resolve=resolvers.get(seam.dispatch),
                    on_return=seam.on_return,
                )
                setattr(seam.owner, seam.attr, kind(wrapped) if kind else wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for owner, attr, raw in reversed(self.originals):
            setattr(owner, attr, raw)
        self.originals.clear()


def seam_objects() -> dict[str, Any]:
    """Every seam's current raw attribute, to check the originals are back."""
    return {seam.label: vars(seam.owner).get(seam.attr) for seam in seam_table()}
