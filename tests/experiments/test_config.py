"""Experiment configuration generation."""

from dataclasses import fields

import pytest

from repro.engine.config import Algorithm, Substrate
from repro.experiments.config import (
    ExperimentConfig,
    build_spec,
    make_configuration,
)
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import compare_algorithms, run_configuration

SUBSTRATE_FIELDS = [f.name for f in fields(Substrate)]


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

    @pytest.mark.parametrize(
        "name, value, match",
        [
            pytest.param("num_servers", 1, "servers", id="num_servers"),
            pytest.param("tree_shape", "zig", "tree shape", id="tree_shape"),
            pytest.param("images_per_server", 0, "image", id="images_per_server"),
            pytest.param("nic_capacity", 0, "nic_capacity", id="nic_capacity"),
        ],
    )
    def test_bad_substrate_rejected_at_construction(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{name: value})

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

    @pytest.mark.parametrize("name", SUBSTRATE_FIELDS)
    def test_substrate_override_rejected(self, name):
        # A substrate variant is replace(setup, ...): the run's network is
        # declared on the config, never patched per run.
        setup = ExperimentConfig(num_servers=4)
        with pytest.raises(ValueError, match="structural"):
            build_spec(setup, 0, Algorithm.GLOBAL, **{name: getattr(setup, name)})
        with pytest.raises(ValueError, match="structural"):
            run_configuration(
                setup, 0, Algorithm.GLOBAL, **{name: getattr(setup, name)}
            )

    def test_sweeps_reject_substrate_overrides(self):
        setup = ExperimentConfig(num_servers=4, images_per_server=2)
        with pytest.raises(ValueError, match="structural"):
            compare_algorithms(
                setup, [Algorithm.GLOBAL], 1, workers=1, nic_capacity=2
            )
        with pytest.raises(ValueError, match="structural"):
            run_sweep(
                setup, [(0, Algorithm.GLOBAL, {"fault_plan": None})], workers=1
            )

    def test_same_config_same_workload_across_algorithms(self):
        """Paired comparison: all algorithms see identical inputs."""
        setup = ExperimentConfig(num_servers=4)
        a = build_spec(setup, 2, Algorithm.DOWNLOAD_ALL)
        b = build_spec(setup, 2, Algorithm.GLOBAL)
        assert a.workload_seed == b.workload_seed
        for key in a.link_traces:
            assert a.link_traces[key] == b.link_traces[key]
