"""Properties of the one fleet-metrics sink over arbitrary streams.

A generated fleet is a stream of queries (start, tagged wire transfers,
finish) in canonical launch order plus untagged transfers, split across
client-hash shards.  Latencies, issue times and transfer sizes are
dyadic rationals, so every float sum is exact and merged summaries can
be compared bit for bit with unsharded ones.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import (
    FleetMetrics,
    QueryStats,
    merge_sinks,
    shard_of,
)
from repro.workload.sink import DEFAULT_RELATIVE_ERROR

HOSTS = ("client", "h0", "h1", "h2")
CLASSES = ("global", "one-shot", "local")
ELAPSED = 5000.0


def dyadic(high: int, denominator: int):
    return st.integers(0, high).map(lambda k: k / denominator)


transfers = st.lists(
    st.tuples(
        st.sampled_from(HOSTS),
        st.sampled_from(HOSTS),
        dyadic(10**6, 1),
        dyadic(4000, 16),
    ).filter(lambda t: t[0] != t[1]),
    max_size=3,
)


@st.composite
def fleets(draw):
    """(num_clients, queries, untagged transfers, shard count, order)."""
    num_clients = draw(st.integers(1, 6))
    queries = []
    for client in range(num_clients):
        for ordinal in range(draw(st.integers(0, 3))):
            issued = draw(dyadic(4000, 4))
            truncated = draw(st.booleans())
            latency = draw(dyadic(8000, 8))
            queries.append(
                (
                    QueryStats(
                        query_id=f"c{client}:{ordinal}",
                        class_name=draw(st.sampled_from(CLASSES)),
                        algorithm="global",
                        issued_at=issued,
                        completion_time=None if truncated else issued + latency,
                        images_delivered=0 if truncated else 4,
                        truncated=truncated,
                        relocations=draw(st.integers(0, 3)),
                        aborted_relocations=draw(st.integers(0, 1)),
                        bytes_on_wire=0.0,
                        planner_rounds=draw(st.integers(0, 2)),
                    ),
                    draw(transfers),
                )
            )
    queries.sort(key=lambda q: (q[0].issued_at, q[0].query_id))
    untagged = draw(transfers)
    num_shards = draw(st.integers(1, 4))
    order = draw(st.permutations(range(num_shards)))
    return num_clients, queries, untagged, num_shards, order


def feed(sink, queries, untagged):
    for stats, wire in queries:
        sink.query_started(stats.query_id, stats.class_name, stats.issued_at)
        for src, dst, size, seconds in wire:
            sink.link_transfer(src, dst, size, seconds, stats.query_id)
        sink.query_finished(stats)
    for src, dst, size, seconds in untagged:
        sink.link_transfer(src, dst, size, seconds)


def unsharded(fleet, keep_records):
    num_clients, queries, untagged, _, _ = fleet
    sink = FleetMetrics(num_clients, keep_records=keep_records)
    feed(sink, queries, untagged)
    return sink.summary(ELAPSED)


def sharded(fleet, keep_records):
    num_clients, queries, untagged, num_shards, order = fleet
    shards = [
        FleetMetrics(num_clients, keep_records=keep_records)
        for _ in range(num_shards)
    ]
    for shard_index, sink in enumerate(shards):
        mine = [
            q
            for q in queries
            if shard_of(int(q[0].query_id[1:].partition(":")[0]), num_shards)
            == shard_index
        ]
        # Untagged traffic lands on the first shard only.
        feed(sink, mine, untagged if shard_index == 0 else [])
    return merge_sinks([shards[i] for i in order]).summary(ELAPSED)


def without_records(summary):
    """The summary minus latency blocks and record-only detail."""
    rest = {
        key: value
        for key, value in summary.items()
        if key not in ("latency", "mode", "per_client", "queries")
    }
    rest["per_class"] = {
        name: {k: v for k, v in entry.items() if k != "latency"}
        for name, entry in summary["per_class"].items()
    }
    rest["links"] = {
        name: {k: v for k, v in entry.items() if k != "queries"}
        for name, entry in summary["links"].items()
    }
    return rest


def latency_blocks(summary):
    yield summary["latency"]
    for entry in summary["per_class"].values():
        yield entry["latency"]


@settings(max_examples=150, deadline=None)
@given(fleets())
def test_merged_summary_equals_unsharded(fleet):
    for keep_records in (True, False):
        assert sharded(fleet, keep_records) == unsharded(fleet, keep_records)


@settings(max_examples=150, deadline=None)
@given(fleets())
def test_counts_match_across_retention(fleet):
    kept = unsharded(fleet, keep_records=True)
    sketched = unsharded(fleet, keep_records=False)
    assert without_records(kept) == without_records(sketched)
    assert ("queries" in kept, "queries" in sketched) == (True, False)
    for exact, sketch in zip(latency_blocks(kept), latency_blocks(sketched)):
        assert exact["count"] == sketch["count"]
        assert exact["max"] == sketch["max"]


@settings(max_examples=150, deadline=None)
@given(fleets())
def test_sketch_percentiles_within_relative_error(fleet):
    _, queries, _, _, _ = fleet
    sketched = unsharded(fleet, keep_records=False)
    by_class: dict[str, list[float]] = {}
    for stats, _ in queries:
        if stats.latency is not None:
            by_class.setdefault(stats.class_name, []).append(stats.latency)
    cases = [(sketched["latency"], sum(by_class.values(), []))]
    cases += [
        (sketched["per_class"][name]["latency"], values)
        for name, values in by_class.items()
    ]
    eps = DEFAULT_RELATIVE_ERROR * (1 + 1e-9)
    for block, values in cases:
        if not values:
            continue
        ordered = sorted(values)
        for p in (50, 95, 99):
            # The exact (interpolated) percentile lies between these two
            # order statistics; the sketch is within eps of that range.
            rank = p / 100 * (len(ordered) - 1)
            low, high = ordered[math.floor(rank)], ordered[math.ceil(rank)]
            estimate = block[f"p{p}"]
            assert low * (1 - eps) <= estimate <= high * (1 + eps) + 1e-9
