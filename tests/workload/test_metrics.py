"""Fleet metrics: fairness, latency blocks, link usage."""

import pytest

from repro.workload import FleetMetrics, QueryStats
from repro.workload.metrics import LATENCY_KEYS, jain_index


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_perfectly_unfair(self):
        # One client gets everything: J -> 1/n.
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero_are_fair_by_convention(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_bounds(self):
        values = [1.0, 2.0, 3.0, 10.0]
        j = jain_index(values)
        assert 1.0 / len(values) <= j <= 1.0

    def test_none_entries_are_ignored(self):
        assert jain_index([None, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_index([None, None]) == 1.0

    def test_zero_mean_does_not_divide_by_zero(self):
        # All-zero means (every query truncated) must not raise.
        assert jain_index([0.0, 0.0, 0.0]) == 1.0


def outcome(query_id, arrivals, issued_at=0.0, truncated=False, relocations=0):
    return QueryStats(
        query_id=query_id,
        class_name="q",
        algorithm="one-shot",
        issued_at=issued_at,
        completion_time=arrivals[-1] if arrivals else None,
        images_delivered=len(arrivals),
        truncated=truncated,
        relocations=relocations,
        aborted_relocations=0,
        bytes_on_wire=0.0,
    )


def summarize(outcomes, links, elapsed, scheduled=None):
    """The summary of a record-keeping sink fed ``outcomes`` and the
    ``(src, dst, bytes, seconds, query_id)`` transfers in ``links``."""
    sink = FleetMetrics()
    for stats in outcomes:
        sink.query_started(stats.query_id, stats.class_name, stats.issued_at)
    for transfer in links:
        sink.link_transfer(*transfer)
    for stats in outcomes:
        sink.query_finished(stats)
    return sink.summary(elapsed, scheduled=scheduled)


class TestFleetSummary:
    def test_latency_percentiles(self):
        outcomes = [
            outcome(f"c{i}:0", [10.0 * (i + 1)], issued_at=0.0) for i in range(4)
        ]
        fleet = summarize(outcomes, [], elapsed=100.0)
        assert fleet["latency"]["count"] == 4
        assert fleet["latency"]["mean"] == pytest.approx(25.0)
        assert fleet["latency"]["max"] == pytest.approx(40.0)
        assert fleet["latency"]["p50"] == pytest.approx(25.0)

    def test_truncated_queries_have_no_latency(self):
        outcomes = [
            outcome("c0:0", [10.0]),
            outcome("c1:0", [5.0], truncated=True),
        ]
        fleet = summarize(outcomes, [], elapsed=50.0)
        assert fleet["completed"] == 1
        assert fleet["truncated"] == 1
        assert fleet["latency"]["count"] == 1
        assert fleet["queries"][1]["latency"] is None

    def test_latency_subtracts_issue_time(self):
        fleet = summarize(
            [outcome("c0:0", [30.0], issued_at=10.0)], [], elapsed=30.0
        )
        assert fleet["queries"][0]["latency"] == pytest.approx(20.0)

    def test_per_client_grouping_and_fairness(self):
        outcomes = [
            outcome("c0:0", [10.0]),
            outcome("c0:1", [20.0]),
            outcome("c1:0", [15.0]),
        ]
        fleet = summarize(outcomes, [], elapsed=30.0)
        assert fleet["per_client"]["c0"]["queries"] == 2
        assert fleet["per_client"]["c0"]["mean_latency"] == pytest.approx(15.0)
        assert fleet["per_client"]["c1"]["mean_latency"] == pytest.approx(15.0)
        assert fleet["fairness_jain"] == pytest.approx(1.0)

    def test_relocation_aggregates(self):
        outcomes = [
            outcome("c0:0", [1.0], relocations=2),
            outcome("c1:0", [1.0], relocations=4),
        ]
        fleet = summarize(outcomes, [], elapsed=10.0)
        assert fleet["relocations"]["total"] == 6
        assert fleet["relocations"]["per_query_mean"] == pytest.approx(3.0)

    def test_link_block(self):
        transfers = [
            ("a", "b", 1000.0, 2.0, "c0:0"),
            ("a", "b", 500.0, 1.0, None),  # engine-internal, untagged
        ]
        fleet = summarize(
            [outcome("c0:0", [1.0])], transfers, elapsed=10.0
        )
        entry = fleet["links"]["a--b"]
        assert entry["bytes"] == 1500.0
        assert entry["transfers"] == 2
        assert entry["utilization"] == pytest.approx(0.3)
        assert entry["queries"] == {"c0:0": 1000.0}
        assert entry["classes"] == {"q": 1000.0}
        assert fleet["bytes_on_wire"] == 1500.0

    def test_empty_fleet(self):
        fleet = summarize([], [], elapsed=0.0, scheduled=0)
        assert fleet["latency"]["mean"] is None
        assert fleet["fairness_jain"] == 1.0
        assert fleet["relocations"]["per_query_mean"] == 0.0

    def test_empty_fleet_shape_matches_populated(self):
        empty = summarize([], [], elapsed=0.0, scheduled=0)
        # The latency block carries the full key set (None-valued), and
        # the per-client map is present-but-empty, not missing.
        assert tuple(empty["latency"]) == LATENCY_KEYS
        assert empty["per_client"] == {}
        assert empty["queries"] == []
        populated = summarize(
            [outcome("c0:0", [10.0])], [], elapsed=20.0, scheduled=1
        )
        assert set(populated) == set(empty)
        assert tuple(populated["latency"]) == LATENCY_KEYS


class TestSinkObserver:
    def test_canonicalizes_pairs(self):
        class Obs:
            def __init__(self, src, dst, query_id):
                self.src_host = src
                self.dst_host = dst
                self.wire_bytes = 100.0
                self.started = 0.0
                self.finished = 1.0
                self.query_id = query_id

        sink = FleetMetrics()
        sink.observe(Obs("b", "a", "c0:0"))
        sink.observe(Obs("a", "b", "c1:0"))
        links = sink.summary(10.0)["links"]
        assert list(links) == ["a--b"]
        assert links["a--b"]["transfers"] == 2
        assert links["a--b"]["queries"] == {"c0:0": 100.0, "c1:0": 100.0}
