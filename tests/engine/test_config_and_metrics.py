"""SimulationSpec validation and RunMetrics computations."""

import math
from dataclasses import fields

import pytest

from repro.engine.config import Algorithm, SimulationSpec, Substrate
from repro.engine.metrics import RunMetrics
from repro.experiments.config import ExperimentConfig
from repro.workload.spec import WorkloadSpec
from tests.conftest import complete_links


class TestAlgorithm:
    def test_values(self):
        assert Algorithm("download-all") is Algorithm.DOWNLOAD_ALL


def spec_kwargs(**overrides):
    hosts = tuple(f"h{i}" for i in range(4))
    kwargs = dict(
        algorithm=Algorithm.DOWNLOAD_ALL,
        tree_shape="binary",
        num_servers=4,
        link_traces=complete_links([*hosts, "client"]),
        server_hosts=hosts,
    )
    kwargs.update(overrides)
    return kwargs


class TestSimulationSpec:
    def test_valid_spec_builds(self):
        spec = SimulationSpec(**spec_kwargs())
        assert spec.all_hosts == (*spec.server_hosts, "client")

    def test_unknown_tree_shape(self):
        with pytest.raises(ValueError):
            SimulationSpec(**spec_kwargs(tree_shape="bushy"))

    def test_host_count_mismatch(self):
        with pytest.raises(ValueError):
            SimulationSpec(**spec_kwargs(num_servers=3))

    def test_client_collision(self):
        kwargs = spec_kwargs()
        kwargs["client_host"] = "h0"
        with pytest.raises(ValueError):
            SimulationSpec(**kwargs)

    def test_missing_link_rejected(self):
        kwargs = spec_kwargs()
        links = dict(kwargs["link_traces"])
        links.pop(("h0", "h1"))
        kwargs["link_traces"] = links
        with pytest.raises(ValueError):
            SimulationSpec(**kwargs)

    def test_positive_period_required(self):
        with pytest.raises(ValueError):
            SimulationSpec(**spec_kwargs(relocation_period=0))

    def test_images_required(self):
        with pytest.raises(ValueError):
            SimulationSpec(**spec_kwargs(images_per_server=0))

    def test_negative_extras_rejected(self):
        with pytest.raises(ValueError):
            SimulationSpec(**spec_kwargs(local_extra_candidates=-1))


#: Every spec type in the program that runs on a substrate.
SPEC_TYPES = (SimulationSpec, WorkloadSpec, ExperimentConfig)


class TestOneSubstrate:
    def test_spec_types_are_the_substrates_subclasses(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        program = {
            c for c in subclasses(Substrate) if c.__module__.startswith("repro.")
        }
        assert program == set(SPEC_TYPES)

    @pytest.mark.parametrize("spec_type", SPEC_TYPES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("name", [f.name for f in fields(Substrate)])
    def test_no_spec_type_redeclares_a_knob(self, spec_type, name):
        # Declared once: a subclass field or property of the same name
        # would be a second way in, free to drift from the first.
        assert name not in vars(spec_type)
        assert name not in vars(spec_type).get("__annotations__", {})


class TestRunMetrics:
    def test_completion_and_interarrival(self):
        metrics = RunMetrics(images=4, arrival_times=[10.0, 20.0, 35.0, 40.0])
        assert metrics.completion_time == 40.0
        assert metrics.mean_interarrival == 10.0

    def test_empty_metrics_are_nan(self):
        metrics = RunMetrics()
        assert math.isnan(metrics.completion_time)
        assert math.isnan(metrics.mean_interarrival)
        assert math.isnan(metrics.median_gap)

    def test_median_gap(self):
        metrics = RunMetrics(arrival_times=[10.0, 20.0, 40.0])
        # Gaps: 10, 10, 20 -> median 10.
        assert metrics.median_gap == 10.0

    def test_speedup_over(self):
        fast = RunMetrics(arrival_times=[50.0])
        slow = RunMetrics(arrival_times=[100.0])
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_summary_keys(self):
        summary = RunMetrics(algorithm="global", num_servers=8).summary()
        for key in (
            "algorithm",
            "completion_time",
            "mean_interarrival",
            "relocations",
            "barrier_rounds",
            "probes_sent",
            "truncated",
        ):
            assert key in summary
