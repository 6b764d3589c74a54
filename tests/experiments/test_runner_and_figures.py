"""Runners and the per-figure reproduction functions (smoke scale)."""

import numpy as np
import pytest

from repro.engine.config import Algorithm
from repro.experiments import (
    ExperimentConfig,
    compare_algorithms,
    fig6_main_comparison,
    fig7_extra_sites,
    fig8_server_scaling,
    fig9_relocation_period,
    fig10_tree_shape,
    run_configuration,
    speedup_series,
)
from repro.experiments.runner import AlgorithmSummary


@pytest.fixture(scope="module")
def small_setup():
    """A fast setup: few images, few servers."""
    return ExperimentConfig(num_servers=4, images_per_server=12)


class TestRunner:
    def test_run_configuration(self, small_setup):
        metrics = run_configuration(small_setup, 0, Algorithm.DOWNLOAD_ALL)
        assert len(metrics.arrival_times) == 12
        assert not metrics.truncated

    def test_compare_algorithms_paired(self, small_setup):
        summaries = compare_algorithms(
            small_setup,
            [Algorithm.DOWNLOAD_ALL, Algorithm.ONE_SHOT],
            n_configs=2,
        )
        assert set(summaries) == {"download-all", "one-shot"}
        for summary in summaries.values():
            assert len(summary.completion_times) == 2

    def test_speedup_series(self):
        base = AlgorithmSummary("base")
        fast = AlgorithmSummary("fast")
        base.completion_times = [100.0, 200.0]
        fast.completion_times = [50.0, 100.0]
        assert list(speedup_series(fast, base)) == [2.0, 2.0]

    def test_speedup_series_length_mismatch(self):
        a, b = AlgorithmSummary("a"), AlgorithmSummary("b")
        a.completion_times = [1.0]
        b.completion_times = [1.0, 2.0]
        with pytest.raises(ValueError):
            speedup_series(a, b)

    def test_progress_callback(self, small_setup):
        calls = []
        compare_algorithms(
            small_setup,
            [Algorithm.DOWNLOAD_ALL],
            n_configs=1,
            progress=lambda i, algo, m: calls.append((i, algo)),
        )
        assert calls == [(0, Algorithm.DOWNLOAD_ALL)]


class TestFigureFunctions:
    def test_fig6(self, small_setup):
        result = fig6_main_comparison(small_setup, n_configs=2)
        assert len(result.global_speedups) == 2
        table = result.format_table()
        assert "speedup over download-all" in table
        assert "interarrival" in table
        assert result.median_global_over_one_shot > 0

    def test_fig7(self, small_setup):
        result = fig7_extra_sites(small_setup, n_configs=1, ks=(0, 2))
        assert result.ks == (0, 2)
        assert len(result.mean_speedups) == 2
        assert result.spread() >= 0
        assert "k extra random candidate sites" in result.format_table()

    def test_fig8(self, small_setup):
        result = fig8_server_scaling(
            small_setup, n_configs=1, server_counts=(2, 4)
        )
        assert result.server_counts == (2, 4)
        assert set(result.mean_speedups) == {"one-shot", "local", "global"}
        assert "number of servers" in result.format_table()

    def test_fig9(self, small_setup):
        result = fig9_relocation_period(
            small_setup, n_configs=1, periods=(60.0, 600.0)
        )
        assert result.periods == (60.0, 600.0)
        assert result.best_period in result.periods
        assert "relocation period" in result.format_table()

    def test_fig10(self, small_setup):
        result = fig10_tree_shape(small_setup, n_configs=1)
        assert result.global_binary.shape == (1,)
        assert "left-deep" in result.format_table()
