"""Sharded fleets: one workload split across processes by client hash.

One *fleet* can be sharded across processes by client hash
(:func:`shard_clients` / :func:`run_workload_sharded`, which
``repro workload --shards`` runs): each shard runs the sub-population's
queries on its own substrate and ships its mergeable
:class:`~repro.workload.sink.MetricsSink` back, and the merged summary
is identical whichever order the shards arrive in (the sinks' merges
are order-invariant by construction).  Sharding trades away cross-shard
network contention — clients in different shards no longer compete for
the same links — in exchange for memory and wall-clock that scale with
``population / shards``; it is the intended path once a fleet outgrows
one process.  Shards fan out through
:mod:`repro.experiments.parallel`'s process-pool map, and platforms
without process pools silently degrade to the bit-identical serial
path.

Specs whose ``library`` is ``None`` rebuild the default trace study
inside each worker (cached per process), so the ~66-pair trace library
never crosses a pipe per shard.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Optional

from repro.experiments.parallel import _ordered_map, resolve_workers
from repro.workload.engine import WorkloadResult, run_workload
from repro.workload.sink import MetricsSink, merge_sinks
from repro.workload.spec import WorkloadSpec


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
