"""Experiment configuration generation."""

import pytest

from repro.engine.config import Algorithm
from repro.experiments.config import (
    ExperimentConfig,
    build_spec,
    make_configuration,
)


class TestExperimentConfig:
    def test_defaults_match_paper(self):
        setup = ExperimentConfig()
        assert setup.num_servers == 8
        assert setup.images_per_server == 180
        assert setup.relocation_period == 600.0
        assert setup.tree_shape == "binary"

    def test_host_names(self):
        setup = ExperimentConfig(num_servers=3)
        assert setup.server_hosts == ("h0", "h1", "h2")
        assert setup.client_host == "client"

    def test_default_library_cached(self):
        a = ExperimentConfig()
        b = ExperimentConfig(num_servers=4, seed=5)
        assert a.trace_library() is b.trace_library()


class TestMakeConfiguration:
    def test_covers_complete_graph(self):
        setup = ExperimentConfig(num_servers=4)
        links = make_configuration(setup, 0)
        assert len(links) == 5 * 4 // 2

    def test_deterministic_per_index(self):
        setup = ExperimentConfig(num_servers=4)
        a = make_configuration(setup, 3)
        b = make_configuration(setup, 3)
        for key in a:
            assert a[key] == b[key]

    def test_indices_differ(self):
        setup = ExperimentConfig(num_servers=4)
        a = make_configuration(setup, 0)
        b = make_configuration(setup, 1)
        assert any(a[key] != b[key] for key in a)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            make_configuration(ExperimentConfig(), -1)

    def test_traces_start_at_zero(self):
        setup = ExperimentConfig(num_servers=4)
        for trace in make_configuration(setup, 0).values():
            assert trace.start == 0.0


class TestBuildSpec:
    def test_spec_fields(self):
        setup = ExperimentConfig(num_servers=4, images_per_server=12)
        spec = build_spec(setup, 0, Algorithm.GLOBAL)
        assert spec.algorithm is Algorithm.GLOBAL
        assert spec.num_servers == 4
        assert spec.images_per_server == 12

    def test_overrides_forwarded(self):
        setup = ExperimentConfig(num_servers=4)
        spec = build_spec(
            setup, 0, Algorithm.GLOBAL, relocation_period=120.0, prefetch=False
        )
        assert spec.relocation_period == 120.0
        assert not spec.prefetch

    def test_same_config_same_workload_across_algorithms(self):
        """Paired comparison: all algorithms see identical inputs."""
        setup = ExperimentConfig(num_servers=4)
        a = build_spec(setup, 2, Algorithm.DOWNLOAD_ALL)
        b = build_spec(setup, 2, Algorithm.GLOBAL)
        assert a.workload_seed == b.workload_seed
        for key in a.link_traces:
            assert a.link_traces[key] == b.link_traces[key]
