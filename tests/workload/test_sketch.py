"""Mergeable quantile sketches and order-free sums."""

import itertools
import math
import pickle
import random

import pytest

from repro.workload.sketch import OrderFreeSum, QuantileSketch
from tests.oracles.percentiles import exact_percentiles


def latencies(n, seed=7):
    """A deterministic heavy-tailed sample, latency-like."""
    rng = random.Random(seed)
    return [rng.lognormvariate(4.0, 1.0) for _ in range(n)]


class TestOrderFreeSum:
    def test_single_part_is_plain_accumulation(self):
        acc = OrderFreeSum()
        plain = 0.0
        for v in latencies(100):
            acc.add(v)
            plain += v
        assert acc.value == plain
        assert len(acc.parts) == 1

    def test_merge_is_permutation_invariant(self):
        values = latencies(60)
        shards = [values[i::3] for i in range(3)]
        totals = set()
        for order in itertools.permutations(range(3)):
            parts = []
            for i in order:
                s = OrderFreeSum()
                for v in shards[i]:
                    s.add(v)
                parts.append(s)
            merged = parts[0]
            for other in parts[1:]:
                merged.merge(other)
            totals.add(merged.value)
        assert len(totals) == 1
        assert math.isclose(totals.pop(), math.fsum(values), rel_tol=1e-12)

    def test_pickle_roundtrip(self):
        s = OrderFreeSum([1.5, 2.5])
        copy = pickle.loads(pickle.dumps(s))
        assert copy.parts == s.parts
        assert copy.value == s.value


class TestQuantileSketch:
    def test_deterministic_state(self):
        a, b = QuantileSketch(0.01), QuantileSketch(0.01)
        for v in latencies(500):
            a.add(v)
            b.add(v)
        assert a.to_state() == b.to_state()
        assert a.percentile(95) == b.percentile(95)

    def test_error_bound_vs_exact(self):
        values = latencies(5000)
        eps = 0.01
        sketch = QuantileSketch(eps)
        sketch.extend(values)
        exact = exact_percentiles(values, (50, 95, 99))
        for p, truth in zip((50, 95, 99), exact):
            estimate = sketch.percentile(p)
            assert abs(estimate - truth) <= 2 * eps * truth

    def test_min_max_mean_are_exact(self):
        values = latencies(300)
        sketch = QuantileSketch(0.02)
        sketch.extend(values)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert math.isclose(sketch.mean, math.fsum(values) / len(values),
                            rel_tol=1e-12)

    def test_merge_permutation_invariant(self):
        values = latencies(900)
        shards = [values[i::4] for i in range(4)]
        states = set()
        for order in itertools.permutations(range(4)):
            parts = []
            for i in order:
                s = QuantileSketch(0.01)
                s.extend(shards[i])
                parts.append(s)
            merged = parts[0]
            for other in parts[1:]:
                merged.merge(other)
            states.add(repr(sorted(merged.to_state()["buckets"].items())))
        assert len(states) == 1

    def test_merge_associative(self):
        shards = [latencies(50, seed=s) for s in range(3)]

        def sketch_of(values):
            s = QuantileSketch(0.01)
            s.extend(values)
            return s

        left = sketch_of(shards[0]).merge(sketch_of(shards[1]))
        left = left.merge(sketch_of(shards[2]))
        right_tail = sketch_of(shards[1]).merge(sketch_of(shards[2]))
        right = sketch_of(shards[0]).merge(right_tail)
        assert left.to_state() == right.to_state()

    def test_merged_equals_single_pass(self):
        values = latencies(400)
        one = QuantileSketch(0.01)
        one.extend(values)
        halves = QuantileSketch(0.01)
        other = QuantileSketch(0.01)
        halves.extend(values[: len(values) // 2])
        other.extend(values[len(values) // 2:])
        halves.merge(other)
        # The bucket histogram is identical; only the fsum partition of
        # the running sum reflects the merge structure.
        assert halves.to_state()["buckets"] == one.to_state()["buckets"]
        assert halves.count == one.count
        assert math.isclose(halves.sum, one.sum, rel_tol=1e-12)
        for p in (50, 95, 99):
            assert halves.percentile(p) == one.percentile(p)

    def test_rejects_negative_and_non_finite(self):
        sketch = QuantileSketch(0.01)
        with pytest.raises(ValueError):
            sketch.add(-1.0)
        with pytest.raises(ValueError):
            sketch.add(float("nan"))

    def test_rejects_bad_relative_error(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0)
        with pytest.raises(ValueError):
            QuantileSketch(1.0)

    def test_merge_requires_matching_error(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_empty_quantiles_are_none(self):
        sketch = QuantileSketch(0.01)
        assert sketch.count == 0
        assert sketch.percentile(50) is None
        assert sketch.mean is None

    def test_state_and_pickle_roundtrip(self):
        sketch = QuantileSketch(0.01)
        sketch.extend(latencies(200))
        rebuilt = QuantileSketch.from_state(sketch.to_state())
        assert rebuilt.to_state() == sketch.to_state()
        assert rebuilt.percentile(99) == sketch.percentile(99)
        pickled = pickle.loads(pickle.dumps(sketch))
        assert pickled.to_state() == sketch.to_state()


class TestExactPercentiles:
    def test_nearest_rank(self):
        # rank = round(q * (n - 1)), the same convention the exact
        # latency block has always used.
        values = list(range(1, 101))
        assert exact_percentiles(values, (50, 95, 99)) == [51.0, 95.0, 99.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_percentiles([], (50,))
