"""The planner search vs the scalar oracle: bit-identical full runs.

Every planner plans from a frozen view, so swapping the batch-priced
search for the scalar reference (``tests/oracles/scalar_planner.py``)
must be *observationally invisible*: both runs agree on every metric,
every arrival time and the byte-exact obs event stream, across all four
algorithms, with and without the reference chaos plan, and under the
concurrent fleet-coordinated workload.
"""

import hashlib
import json

import pytest

from repro.engine.config import Algorithm, SimulationSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import reference_chaos_plan
from repro.obs import Tracer
from repro.placement.one_shot import OneShotPlanner
from tests.oracles.scalar_planner import scalar_search

ALGORITHMS = [
    Algorithm.DOWNLOAD_ALL,
    Algorithm.ONE_SHOT,
    Algorithm.LOCAL,
    Algorithm.GLOBAL,
]

SETUP = ExperimentConfig(num_servers=4, images_per_server=8)


def _stream_digest(tracer: Tracer) -> str:
    """Content hash of the obs stream with run-relative message uids."""
    uids = sorted({e["uid"] for e in tracer.events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    events = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e
        for e in tracer.events
    ]
    return hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()
    ).hexdigest()


@pytest.fixture
def oracle(monkeypatch):
    """Call ``fn()`` once as is and once with the scalar search patched in."""

    def both(fn):
        fast = fn()
        with monkeypatch.context() as patch:
            patch.setattr(OneShotPlanner, "_search", scalar_search)
            ref = fn()
        return fast, ref

    return both


def _traced_run(setup, index, algorithm):
    tracer = Tracer()
    metrics = run_configuration(setup, index, algorithm, tracer=tracer)
    return metrics, _stream_digest(tracer)


class TestSpecValidation:
    def test_unknown_engine_rejected(self):
        # One search, no switch: the specs no longer take the knob.
        from repro.workload import WorkloadSpec

        for spec_type in (SimulationSpec, ExperimentConfig, WorkloadSpec):
            with pytest.raises(TypeError, match="planner_engine"):
                spec_type(planner_engine="scalar")


class TestRunEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_fault_runs_identical(self, algorithm, oracle):
        (fast, fd), (ref, rd) = oracle(
            lambda: _traced_run(SETUP, 0, algorithm)
        )
        assert fast.summary() == ref.summary()
        assert fast.arrival_times == ref.arrival_times
        assert fd == rd

    @pytest.mark.parametrize(
        "algorithm", [Algorithm.GLOBAL, Algorithm.ONE_SHOT]
    )
    def test_chaos_runs_identical(self, algorithm, oracle):
        hosts = (*SETUP.server_hosts, SETUP.client_host)
        setup = ExperimentConfig(
            num_servers=4,
            images_per_server=8,
            fault_plan=reference_chaos_plan(hosts, seed=1),
        )
        (fast, fd), (ref, rd) = oracle(
            lambda: _traced_run(setup, 0, algorithm)
        )
        assert fast.summary() == ref.summary()
        assert fast.arrival_times == ref.arrival_times
        assert fd == rd


class TestWorkloadEquivalence:
    def test_fleet_coordinated_workload_identical(self, oracle):
        from repro.fleet import FleetPolicy
        from repro.workload import (
            ClosedLoop,
            QueryClass,
            WorkloadSpec,
            run_workload,
        )

        spec = WorkloadSpec(
            classes=(
                QueryClass(name="global", algorithm=Algorithm.GLOBAL),
                QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
            ),
            num_clients=2,
            queries_per_client=1,
            arrivals=ClosedLoop(think_time=2.0),
            seed=11,
            num_servers=4,
            images_per_server=4,
            fleet=FleetPolicy(mode="coordinated"),
        )

        def run():
            tracer = Tracer()
            result = run_workload(spec, tracer=tracer)
            return result.to_dict(), _stream_digest(tracer)

        fast, ref = oracle(run)
        assert fast == ref


class TestCliSmoke:
    def test_compare_byte_identical_under_chaos(self, tmp_path, capsys, oracle):
        from repro.cli import main

        hosts = tuple(f"h{i}" for i in range(4)) + ("client",)
        plan_path = tmp_path / "chaos.json"
        reference_chaos_plan(hosts, seed=1).to_json(plan_path)

        def compare():
            code = main(
                [
                    "compare",
                    "--servers",
                    "4",
                    "--images",
                    "6",
                    "--configs",
                    "1",
                    "--faults",
                    str(plan_path),
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        fast, ref = oracle(compare)
        assert fast == ref
        assert "download-all" in fast
