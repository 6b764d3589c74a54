"""Workload sweeps: serial/parallel parity and task validation."""

import pytest

from repro.engine.config import Algorithm
from repro.workload import WORKLOAD_SCHEMA, ClosedLoop, QueryClass, WorkloadSpec
from repro.workload.sweep import run_workload_sweep


def tiny_workload(seed):
    return WorkloadSpec(
        classes=(QueryClass(name="os", algorithm=Algorithm.ONE_SHOT),),
        num_clients=2,
        queries_per_client=1,
        arrivals=ClosedLoop(),
        seed=seed,
        num_servers=4,
        images_per_server=2,
    )


class TestRunWorkloadSweep:
    def test_results_keyed_by_name_in_task_order(self):
        tasks = [("a", tiny_workload(1)), ("b", tiny_workload(2))]
        results = run_workload_sweep(tasks, workers=1)
        assert list(results) == ["a", "b"]
        for fleet in results.values():
            assert fleet["workload_schema"] == WORKLOAD_SCHEMA
            assert fleet["completed"] == 2

    def test_parallel_matches_serial(self):
        tasks = [("a", tiny_workload(1)), ("b", tiny_workload(2))]
        serial = run_workload_sweep(tasks, workers=1)
        parallel = run_workload_sweep(tasks, workers=2)
        assert parallel == serial

    def test_duplicate_names_rejected(self):
        tasks = [("a", tiny_workload(1)), ("a", tiny_workload(2))]
        with pytest.raises(ValueError, match="duplicate"):
            run_workload_sweep(tasks, workers=1)

    def test_non_spec_task_rejected(self):
        with pytest.raises(ValueError, match="WorkloadSpec"):
            run_workload_sweep([("a", object())], workers=1)

    def test_progress_fires_in_task_order(self):
        tasks = [("a", tiny_workload(1)), ("b", tiny_workload(2))]
        seen = []
        run_workload_sweep(
            tasks, workers=1, progress=lambda name, fleet: seen.append(name)
        )
        assert seen == ["a", "b"]
