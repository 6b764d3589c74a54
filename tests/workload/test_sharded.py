"""Client-hash sharded fleets: partitioning and order-invariant merges."""

import itertools
import json

import pytest

from repro.engine.config import Algorithm
from repro.workload import (
    WORKLOAD_SCHEMA,
    ClosedLoop,
    FleetPolicy,
    OverloadPolicy,
    QueryClass,
    WorkloadSpec,
    merge_sinks,
    run_workload,
    run_workload_sharded,
    shard_clients,
    shard_of,
)


def tiny_spec(**overrides):
    defaults = dict(
        classes=(QueryClass(name="os", algorithm=Algorithm.ONE_SHOT),),
        num_clients=5,
        queries_per_client=1,
        arrivals=ClosedLoop(),
        seed=4,
        num_servers=4,
        images_per_server=2,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for client in range(100):
            shard = shard_of(client, 7)
            assert 0 <= shard < 7
            assert shard == shard_of(client, 7)

    def test_spreads_clients(self):
        assignments = {shard_of(c, 4) for c in range(64)}
        assert assignments == {0, 1, 2, 3}


class TestShardClients:
    def test_partition_is_disjoint_and_complete(self):
        spec = tiny_spec(num_clients=16)
        shards = shard_clients(spec, 3)
        seen = [c for s in shards for c in s.client_subset]
        assert sorted(seen) == list(range(16))
        assert len(seen) == len(set(seen))

    def test_mode_resolved_against_full_fleet(self):
        # 16 queries <= default threshold: every shard keeps records.
        for shard in shard_clients(tiny_spec(num_clients=16), 3):
            assert shard.build_metrics().keeps_records
        # 16 > 15: no shard keeps records, although each shard's own
        # sub-population is within the threshold.
        spec = tiny_spec(num_clients=16, exact_metrics_threshold=15)
        shards = shard_clients(spec, 3)
        assert all(s.total_queries <= 15 for s in shards)
        for shard in shards:
            assert not shard.build_metrics().keeps_records

    def test_empty_buckets_dropped(self):
        shards = shard_clients(tiny_spec(num_clients=2), 8)
        assert 1 <= len(shards) <= 2
        total = sum(len(s.client_subset) for s in shards)
        assert total == 2

    def test_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_clients(tiny_spec(), 0)


class TestRunWorkloadSharded:
    def test_serial_matches_parallel(self):
        spec = tiny_spec()
        serial = run_workload_sharded(spec, 3, workers=1)
        parallel = run_workload_sharded(spec, 3, workers=3)
        assert serial.fleet == parallel.fleet
        assert serial.fleet["scheduled"] == 5

    def test_shard_order_does_not_matter(self):
        spec = tiny_spec(exact_metrics_threshold=0)
        shard_specs = shard_clients(spec, 3)
        sinks = [run_workload(s).metrics for s in shard_specs]
        elapsed = 1000.0
        summaries = set()
        for order in itertools.permutations(range(len(sinks))):
            # Re-run each shard so merges never mutate shared sinks.
            parts = [run_workload(shard_specs[i]).metrics for i in order]
            merged = merge_sinks(parts)
            summaries.add(
                json.dumps(merged.summary(elapsed, scheduled=5))
            )
        assert len(summaries) == 1
        assert len(sinks) >= 2  # the permutations actually permuted

    def test_streaming_sharded_run(self):
        spec = tiny_spec(exact_metrics_threshold=0)
        result = run_workload_sharded(spec, 2, workers=1)
        assert result.fleet["workload_schema"] == WORKLOAD_SCHEMA
        assert result.fleet["launched"] == 5
        assert result.queries == []

    def test_single_shard_equals_unsharded_streaming(self):
        spec = tiny_spec(exact_metrics_threshold=0)
        whole = run_workload(spec)
        sharded = run_workload_sharded(spec, 1, workers=1)
        assert sharded.fleet == whole.fleet


def overloaded_spec(**overrides):
    """A fleet whose shards all move resilience counters.

    The 40 s class deadline is below every query's completion time, so
    each shard sheds nothing but aborts and retries deterministically;
    the merged summary's ``resilience`` block must not depend on shard
    order.
    """
    defaults = dict(
        classes=(
            QueryClass(
                name="os",
                algorithm=Algorithm.ONE_SHOT,
                deadline=40.0,
                slo_target=30.0,
            ),
        ),
        num_clients=6,
        queries_per_client=2,
        arrivals=ClosedLoop(),
        seed=4,
        num_servers=4,
        images_per_server=2,
        overload=OverloadPolicy(retry_budget=1, retry_backoff=10.0),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestShardedResilience:
    def test_resilience_merges_order_invariantly(self):
        # Admission is per-engine, so a sharded fleet is its own
        # scenario — but within it, any shard permutation (and any
        # worker count) must fold to the identical resilience block.
        spec = overloaded_spec()
        shard_specs = shard_clients(spec, 3)
        assert len(shard_specs) >= 2
        blocks = set()
        for order in itertools.permutations(range(len(shard_specs))):
            parts = [run_workload(shard_specs[i]).metrics for i in order]
            merged = merge_sinks(parts)
            summary = merged.summary(1000.0, scheduled=12)
            blocks.add(json.dumps(summary["resilience"], sort_keys=True))
        assert len(blocks) == 1
        block = json.loads(next(iter(blocks)))
        assert block["deadline_aborts"] > 0
        assert block["retries"] > 0
        assert block["per_class"]["os"]["slo_eligible"] >= 0

    def test_serial_matches_parallel_with_overload(self):
        spec = overloaded_spec()
        serial = run_workload_sharded(spec, 3, workers=1)
        parallel = run_workload_sharded(spec, 3, workers=3)
        assert serial.fleet == parallel.fleet
        assert serial.fleet["resilience"]["deadline_aborts"] > 0

    def test_streaming_shards_match_exact_shards(self):
        exact = run_workload_sharded(overloaded_spec(), 3, workers=1)
        streaming = run_workload_sharded(
            overloaded_spec(exact_metrics_threshold=0), 3, workers=1
        )
        assert (
            exact.fleet["resilience"] == streaming.fleet["resilience"]
        )


def coordinated_spec(**overrides):
    """A fleet whose shards all move coordination counters.

    Replanning global queries under a one-token bucket with a slow
    refill guarantees grants *and* denies in every shard; the merged
    summary's ``fleet`` block must not depend on shard order.
    """
    defaults = dict(
        classes=(
            QueryClass(
                name="g",
                algorithm=Algorithm.GLOBAL,
                overrides={"relocation_period": 60.0},
            ),
        ),
        num_clients=4,
        queries_per_client=1,
        arrivals=ClosedLoop(),
        seed=9,
        num_servers=4,
        images_per_server=12,
        fleet=FleetPolicy(
            mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
        ),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestShardedCoordination:
    def test_fleet_block_merges_order_invariantly(self):
        # Coordination is per-engine, so a sharded fleet is its own
        # scenario — but within it, any shard permutation must fold to
        # the identical fleet block (claims, grants, denies, bottleneck
        # histogram and planner-effort totals all commute).
        spec = coordinated_spec()
        shard_specs = shard_clients(spec, 3)
        assert len(shard_specs) >= 2
        blocks = set()
        for order in itertools.permutations(range(len(shard_specs))):
            parts = [run_workload(shard_specs[i]).metrics for i in order]
            merged = merge_sinks(parts)
            summary = merged.summary(10000.0, scheduled=4)
            blocks.add(json.dumps(summary["fleet"], sort_keys=True))
        assert len(blocks) == 1
        block = json.loads(next(iter(blocks)))
        assert block["claims"] == 4
        assert block["grants"] + block["denies"] > 0
        assert block["planner_candidates"] > 0
        assert block["planner_rounds"] > 0
        assert block["planner_links_queried"] > 0

    def test_serial_matches_parallel_with_fleet(self):
        spec = coordinated_spec()
        serial = run_workload_sharded(spec, 3, workers=1)
        parallel = run_workload_sharded(spec, 3, workers=3)
        assert serial.fleet == parallel.fleet
        assert serial.fleet["fleet"]["claims"] == 4

    def test_streaming_shards_match_exact_shards(self):
        exact = run_workload_sharded(coordinated_spec(), 3, workers=1)
        streaming = run_workload_sharded(
            coordinated_spec(exact_metrics_threshold=0), 3, workers=1
        )
        assert exact.fleet["fleet"] == streaming.fleet["fleet"]
