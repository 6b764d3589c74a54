"""The parallel sweep layer: determinism, fallback, worker resolution."""

import numpy as np
import pytest

from repro.engine.config import Algorithm
from repro.experiments import (
    ExperimentConfig,
    build_spec,
    compare_algorithms,
    resolve_workers,
    run_sweep,
)
from repro.experiments.parallel import WORKERS_ENV, _init_worker, _run_task
from repro.experiments.runner import AlgorithmSummary
from repro.traces import InternetStudy


@pytest.fixture(scope="module")
def small_setup():
    return ExperimentConfig(num_servers=4, images_per_server=12)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_zero_means_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestRunSweep:
    def test_duplicate_task_rejected(self, small_setup):
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(
                small_setup,
                [(0, Algorithm.DOWNLOAD_ALL), (0, Algorithm.DOWNLOAD_ALL)],
            )

    def test_malformed_task_rejected(self, small_setup):
        with pytest.raises(ValueError, match="task must be"):
            run_sweep(small_setup, [(0,)])

    def test_per_task_overrides_win(self, small_setup):
        # The shared override would make the run longer; the per-task one
        # restores the default, so both runs must match a plain run.
        plain = run_sweep(small_setup, [(0, Algorithm.GLOBAL)])
        merged = run_sweep(
            small_setup,
            [(0, Algorithm.GLOBAL, {"relocation_period": 600.0})],
            overrides={"relocation_period": 60.0},
        )
        key = (0, Algorithm.GLOBAL.value)
        assert merged[key].arrival_times == plain[key].arrival_times

    def test_progress_order_is_serial_order(self, small_setup):
        tasks = [
            (i, a)
            for i in range(2)
            for a in (Algorithm.DOWNLOAD_ALL, Algorithm.ONE_SHOT)
        ]
        for workers in (1, 2):
            seen = []
            run_sweep(
                small_setup,
                tasks,
                workers=workers,
                progress=lambda i, a, m: seen.append((i, a.value)),
            )
            assert seen == [
                (0, "download-all"),
                (0, "one-shot"),
                (1, "download-all"),
                (1, "one-shot"),
            ]


class TestDeterminism:
    ALGOS = list(Algorithm)

    def test_parallel_bit_identical_to_serial(self, small_setup):
        serial = compare_algorithms(small_setup, self.ALGOS, 4, workers=1)
        parallel = compare_algorithms(small_setup, self.ALGOS, 4, workers=2)
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name].completion_times == parallel[name].completion_times
            assert serial[name].interarrivals == parallel[name].interarrivals
            assert serial[name].relocations == parallel[name].relocations

    def test_injected_library_reaches_workers(self):
        # A custom (non-default-seed) library must produce the same results
        # under the worker-init path as in-process: the setup, library
        # included, ships to each worker once via the pool initializer.
        library = InternetStudy(seed=777).run()
        setup = ExperimentConfig(
            num_servers=4, images_per_server=8, library=library
        )
        serial = run_sweep(setup, [(0, Algorithm.GLOBAL), (1, Algorithm.GLOBAL)])
        parallel = run_sweep(
            setup, [(0, Algorithm.GLOBAL), (1, Algorithm.GLOBAL)], workers=2
        )
        for key, metrics in serial.items():
            assert metrics.arrival_times == parallel[key].arrival_times

    def test_build_spec_under_worker_init(self):
        # Regression: build_spec with library= injected must work when the
        # worker globals (not the caller) hold the setup.
        library = InternetStudy(seed=42).run()
        setup = ExperimentConfig(
            num_servers=4, images_per_server=8, library=library
        )
        _init_worker(setup)
        key, metrics = _run_task((0, Algorithm.DOWNLOAD_ALL.value, ()))
        assert key == (0, "download-all")
        expected = build_spec(setup, 0, Algorithm.DOWNLOAD_ALL)
        assert metrics.num_servers == expected.num_servers
        assert len(metrics.arrival_times) == 8


class TestPoolUnavailableFallback:
    """run_sweep degrades to the serial loop on every pool-failure mode."""

    TASKS = [(0, Algorithm.DOWNLOAD_ALL), (1, Algorithm.DOWNLOAD_ALL)]

    @pytest.mark.parametrize(
        "error",
        [
            ImportError("no multiprocessing"),
            NotImplementedError("no sem_open"),
            OSError("fork failed"),
            PermissionError("sandbox denies semaphores"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_fallback_matches_serial(self, small_setup, monkeypatch, error):
        from repro.experiments import parallel

        def broken_pool(*args, **kwargs):
            raise error

        monkeypatch.setattr(parallel, "_run_parallel", broken_pool)
        fallen_back = run_sweep(small_setup, self.TASKS, workers=4)
        serial = run_sweep(small_setup, self.TASKS, workers=1)
        assert set(fallen_back) == set(serial)
        for key in serial:
            assert fallen_back[key].arrival_times == serial[key].arrival_times
            assert fallen_back[key].summary() == serial[key].summary()

    def test_fallback_preserves_progress_order(self, small_setup, monkeypatch):
        from repro.experiments import parallel

        monkeypatch.setattr(
            parallel,
            "_run_parallel",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no pool")),
        )
        seen = []
        run_sweep(
            small_setup,
            self.TASKS,
            workers=4,
            progress=lambda i, a, m: seen.append((i, a.value)),
        )
        assert seen == [(0, "download-all"), (1, "download-all")]

    def test_unrelated_errors_propagate(self, small_setup, monkeypatch):
        from repro.experiments import parallel

        def broken_pool(*args, **kwargs):
            raise RuntimeError("a real bug, not a missing pool")

        monkeypatch.setattr(parallel, "_run_parallel", broken_pool)
        with pytest.raises(RuntimeError, match="a real bug"):
            run_sweep(small_setup, self.TASKS, workers=4)


class TestSummaryMerge:
    def _summary(self, name, completions):
        s = AlgorithmSummary(name)
        s.completion_times = list(completions)
        s.interarrivals = [c / 10.0 for c in completions]
        s.relocations = [int(c) for c in completions]
        return s

    def test_sharded_sweep_equals_whole_sweep(self, small_setup):
        """Two 2-config shards, added in order, equal the 4-config summary."""
        whole = compare_algorithms(small_setup, [Algorithm.ONE_SHOT], 4)
        merged = AlgorithmSummary(Algorithm.ONE_SHOT.value)
        for indices in ((0, 1), (2, 3)):
            results = run_sweep(
                small_setup, [(i, Algorithm.ONE_SHOT) for i in indices]
            )
            for i in indices:
                merged.add(results[(i, Algorithm.ONE_SHOT.value)])
        assert merged.completion_times == whole["one-shot"].completion_times
        assert merged.interarrivals == whole["one-shot"].interarrivals
        assert merged.relocations == whole["one-shot"].relocations

    def test_speedup_series_mismatch_still_raises(self):
        from repro.experiments import speedup_series

        a = self._summary("a", [1.0])
        b = self._summary("b", [1.0, 2.0])
        with pytest.raises(ValueError, match="different numbers"):
            speedup_series(a, b)
