"""Building a run's spec from its configuration: a pure function.

``build_spec`` draws configuration ``config_index`` through
``sample_config`` on every call, so equal inputs must give equal specs:
the four algorithms compared on one index see the same links.
"""

import pytest

from repro.engine.config import Algorithm
from repro.experiments.config import (
    ExperimentConfig,
    build_spec,
    make_configuration,
    sample_config,
)


SETUP = ExperimentConfig(num_servers=4, images_per_server=12)


class TestSampleConfig:
    def test_artifact_matches_make_configuration(self):
        spec = build_spec(SETUP, 0, Algorithm.GLOBAL)
        assert spec.link_traces == make_configuration(SETUP, 0)
        assert sample_config(SETUP, 0) == make_configuration(SETUP, 0)
        assert spec.workload_seed == SETUP.seed
        assert spec.control_seed == SETUP.seed

    def test_fresh_and_memoized_draw_identical_traces(self):
        setup = ExperimentConfig(num_servers=4, images_per_server=12)
        a = sample_config(setup, 2)
        b = make_configuration(setup, 2)
        for key, trace in a.items():
            # Every draw returns the library's shared noon-segment
            # objects (they come from its per-pair cache).
            assert b[key] is trace

    def test_distinct_setups_do_not_collide(self):
        setup_a = ExperimentConfig(num_servers=4, images_per_server=12)
        setup_b = ExperimentConfig(num_servers=4, images_per_server=12, seed=2024)
        assert sample_config(setup_a, 0) != sample_config(setup_b, 0)


class TestBuildSpecFromConfig:
    def test_matches_build_spec(self):
        equal_setup = ExperimentConfig(num_servers=4, images_per_server=12)
        for algorithm in (Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL):
            direct = build_spec(SETUP, 1, algorithm)
            assert build_spec(SETUP, 1, algorithm) == direct
            assert build_spec(equal_setup, 1, algorithm) == direct
        assert build_spec(SETUP, 1, Algorithm.GLOBAL).workload_seed == SETUP.seed + 1

    def test_algorithms_share_link_traces(self):
        specs = [
            build_spec(SETUP, 0, a)
            for a in (Algorithm.ONE_SHOT, Algorithm.LOCAL, Algorithm.GLOBAL)
        ]
        for spec in specs[1:]:
            assert spec.link_traces == specs[0].link_traces
            for key, trace in spec.link_traces.items():
                assert specs[0].link_traces[key] is trace

    def test_overrides_forwarded(self):
        spec = build_spec(SETUP, 0, Algorithm.GLOBAL, relocation_period=123.0)
        assert spec.relocation_period == 123.0

    def test_substrate_overrides_rejected(self):
        with pytest.raises(ValueError):
            build_spec(SETUP, 0, Algorithm.GLOBAL, num_servers=6)
