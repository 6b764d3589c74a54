"""Parallel execution of workload batches and sharded fleets.

A batch of named :class:`~repro.workload.spec.WorkloadSpec` tasks fans
out through :mod:`repro.experiments.parallel`'s process-pool map with
bit-identical results to the serial loop — every workload is a pure
function of its spec, results come back in task order, and platforms
without process pools silently degrade to the serial path.

Beyond per-task parallelism, one *fleet* can itself be sharded across
processes by client hash (:func:`shard_clients` /
:func:`run_workload_sharded`): each shard runs the sub-population's
queries on its own substrate and ships its mergeable
:class:`~repro.workload.sink.MetricsSink` back, and the merged summary
is identical whichever order the shards arrive in (the sinks' merges
are order-invariant by construction).  Sharding trades away cross-shard
network contention — clients in different shards no longer compete for
the same links — in exchange for memory and wall-clock that scale with
``population / shards``; it is the intended path once a fleet outgrows
one process.

Specs whose ``library`` is ``None`` rebuild the default trace study
inside each worker (cached per process), so the ~66-pair trace library
never crosses a pipe per task.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence

from repro.experiments.parallel import _ordered_map, resolve_workers
from repro.workload.engine import WorkloadResult, run_workload
from repro.workload.sink import MetricsSink, merge_sinks
from repro.workload.spec import WorkloadSpec

#: One task: ``(name, spec)``; results are keyed by name.
WorkloadTask = tuple[str, WorkloadSpec]


def shard_of(client_index: int, num_shards: int) -> int:
    """The shard owning one client: a salt-free deterministic hash.

    Uses CRC-32 of the decimal client index (not python's salted
    ``hash``), so shard membership is stable across processes and runs.
    """
    return zlib.crc32(str(client_index).encode("ascii")) % num_shards


def shard_clients(spec: WorkloadSpec, num_shards: int) -> list[WorkloadSpec]:
    """Split a spec's client population into per-shard sub-specs.

    Every shard keeps the full spec (seeds, network draw, classes) and
    restricts ``client_subset`` to its hash bucket, so per-client seeds
    and query ids match the unsharded run.  Record retention follows the
    full population (see :meth:`WorkloadSpec.build_metrics`), so all
    shard sinks are mutually mergeable.  Shards with no clients are
    dropped.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    buckets: list[list[int]] = [[] for _ in range(num_shards)]
    for client_index in spec.client_indices:
        buckets[shard_of(client_index, num_shards)].append(client_index)
    return [
        replace(spec, client_subset=tuple(bucket))
        for bucket in buckets
        if bucket
    ]


def _run_shard(spec: WorkloadSpec) -> tuple[float, MetricsSink]:
    """Worker body: run one shard, return its mergeable sink."""
    result = run_workload(spec)
    return result.elapsed, result.metrics


def run_workload_sharded(
    spec: WorkloadSpec,
    num_shards: int,
    *,
    workers: Optional[int] = None,
) -> WorkloadResult:
    """Run one fleet split across ``num_shards`` client-hash shards.

    Each shard's sink merges into one fleet summary whose ``elapsed`` is
    the slowest shard and whose ``scheduled`` covers the whole
    population.  The merge is order-invariant, and the serial fallback
    (no process pool, or ``workers=1``) is bit-identical to the parallel
    path.  Per-query results are not materialized (``result.queries`` is
    empty); tracing a sharded run is unsupported.
    """
    shard_specs = shard_clients(spec, num_shards)
    if not shard_specs:
        sink = spec.build_metrics()
        return WorkloadResult(
            spec=spec,
            elapsed=0.0,
            queries=[],
            fleet=sink.summary(0.0, scheduled=0),
            metrics=sink,
        )
    outputs = _ordered_map(_run_shard, shard_specs, resolve_workers(workers))
    elapsed = max(shard_elapsed for shard_elapsed, _ in outputs)
    sink = merge_sinks([shard_sink for _, shard_sink in outputs])
    scheduled = sum(s.total_queries for s in shard_specs)
    return WorkloadResult(
        spec=spec,
        elapsed=elapsed,
        queries=[],
        fleet=sink.summary(elapsed, scheduled=scheduled),
        metrics=sink,
    )


def _normalize_tasks(tasks: Sequence[tuple]) -> list[WorkloadTask]:
    normalized: list[WorkloadTask] = []
    seen: set[str] = set()
    for task in tasks:
        if len(task) != 2:
            raise ValueError(f"task must be (name, WorkloadSpec), got {task!r}")
        name, spec = task
        name = str(name)
        if not isinstance(spec, WorkloadSpec):
            raise ValueError(f"task {name!r} is not a WorkloadSpec: {spec!r}")
        if name in seen:
            raise ValueError(f"duplicate workload task name {name!r}")
        seen.add(name)
        normalized.append((name, spec))
    return normalized


def _run_task(task: WorkloadTask) -> tuple[str, dict[str, Any]]:
    """Worker body: run one workload, return its fleet summary.

    Only the JSON-safe fleet dict crosses the pipe back — per-query
    :class:`~repro.obs.metrics.RunMetrics` are embedded as summaries
    inside it.
    """
    name, spec = task
    return name, run_workload(spec).to_dict()


def run_workload_sweep(
    tasks: Sequence[tuple],
    *,
    workers: Optional[int] = None,
    shards: int = 1,
    progress: Optional[Callable[[str, dict], None]] = None,
) -> dict[str, dict[str, Any]]:
    """Run a batch of ``(name, WorkloadSpec)`` tasks.

    Returns ``{name: fleet summary dict}`` with one entry per task, in
    task order, independent of the worker count.  ``workers`` resolves
    exactly as in :func:`repro.experiments.parallel.resolve_workers`
    (explicit argument, then ``REPRO_WORKERS``, then serial).  With
    ``shards > 1`` each task's fleet is client-hash sharded across the
    worker pool (:func:`run_workload_sharded`), which is how sweeps over
    fleets too large for one process's memory are meant to run.
    """
    normalized = _normalize_tasks(tasks)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > 1:
        results: dict[str, dict[str, Any]] = {}
        for name, spec in normalized:
            fleet = run_workload_sharded(spec, shards, workers=workers).fleet
            results[name] = fleet
            if progress is not None:
                progress(name, fleet)
        return results
    report = None if progress is None else (lambda result: progress(*result))
    return dict(
        _ordered_map(
            _run_task, normalized, resolve_workers(workers), on_result=report
        )
    )
