"""Bootstrap statistics helpers."""

import numpy as np
import pytest

from repro.experiments.stats import Interval, bootstrap, paired_ratio, summarize


class TestBootstrap:
    def test_point_estimate_is_exact(self):
        interval = bootstrap([1.0, 2.0, 3.0, 4.0, 5.0], statistic=np.median)
        assert interval.point == 3.0

    def test_interval_brackets_point(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 2.0, size=200)
        interval = bootstrap(values, statistic=np.mean)
        assert interval.low <= interval.point <= interval.high

    def test_interval_narrows_with_sample_size(self):
        rng = np.random.default_rng(1)
        small = bootstrap(rng.normal(0, 1, 20), statistic=np.mean, seed=2)
        large = bootstrap(rng.normal(0, 1, 2000), statistic=np.mean, seed=2)
        assert (large.high - large.low) < (small.high - small.low)

    def test_single_value_degenerate(self):
        interval = bootstrap([7.0])
        assert interval.low == interval.point == interval.high == 7.0

    def test_deterministic_for_seed(self):
        values = [1.0, 5.0, 2.0, 8.0]
        assert bootstrap(values, seed=3) == bootstrap(values, seed=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap([])
        with pytest.raises(ValueError):
            bootstrap([1.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap([1.0], n_resamples=0)

    def test_str_formatting(self):
        text = str(Interval(1.5, 1.2, 1.9, 0.95))
        assert text == "1.50 [1.20, 1.90]"


class TestPairedRatio:
    def test_median_ratio(self):
        num = [2.0, 4.0, 6.0]
        den = [1.0, 2.0, 3.0]
        interval = paired_ratio(num, den)
        assert interval.point == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_ratio([1.0], [1.0, 2.0])

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            paired_ratio([1.0], [0.0])


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["median"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p25"] <= summary["median"] <= summary["p75"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
