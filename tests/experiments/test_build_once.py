"""Build-once SampledConfig artifacts: sample each configuration once.

``sample_config`` must be a pure function of ``(setup, config_index)``
whose memoized artifact fans out across algorithms without any observable
difference from per-run resampling.
"""

from repro.engine.config import Algorithm
from repro.experiments.config import (
    ExperimentConfig,
    SampledConfig,
    build_spec,
    build_spec_from_config,
    make_configuration,
    sample_config,
)


SETUP = ExperimentConfig(num_servers=4, images_per_server=12)


class TestSampleConfig:
    def test_artifact_matches_make_configuration(self):
        sampled = sample_config(SETUP, 0)
        assert isinstance(sampled, SampledConfig)
        assert sampled.config_index == 0
        assert sampled.link_traces == make_configuration(SETUP, 0)
        assert sampled.workload_seed == SETUP.seed
        assert sampled.control_seed == SETUP.seed

    def test_memo_returns_same_artifact(self):
        setup = ExperimentConfig(num_servers=4, images_per_server=12)
        assert sample_config(setup, 1) is sample_config(setup, 1)

    def test_fresh_and_memoized_draw_identical_traces(self):
        setup = ExperimentConfig(num_servers=4, images_per_server=12)
        a = sample_config(setup, 2)
        b = make_configuration(setup, 2)
        for key, trace in a.link_traces.items():
            # The cached path returns the library's shared noon-segment
            # objects; a fresh sample returns the same objects again
            # (they come from the same per-pair cache).
            assert b[key] is trace

    def test_distinct_setups_do_not_collide(self):
        setup_a = ExperimentConfig(num_servers=4, images_per_server=12)
        setup_b = ExperimentConfig(num_servers=4, images_per_server=12, seed=2024)
        a = sample_config(setup_a, 0)
        b = sample_config(setup_b, 0)
        assert a.link_traces != b.link_traces


class TestBuildSpecFromConfig:
    def test_matches_build_spec(self):
        for algorithm in (Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL):
            direct = build_spec(SETUP, 1, algorithm)
            sampled = sample_config(SETUP, 1)
            via_artifact = build_spec_from_config(SETUP, sampled, algorithm)
            assert via_artifact == direct

    def test_algorithms_share_link_traces(self):
        sampled = sample_config(SETUP, 0)
        specs = [
            build_spec_from_config(SETUP, sampled, a)
            for a in (Algorithm.ONE_SHOT, Algorithm.LOCAL, Algorithm.GLOBAL)
        ]
        for spec in specs[1:]:
            assert spec.link_traces is specs[0].link_traces

    def test_overrides_forwarded(self):
        sampled = sample_config(SETUP, 0)
        spec = build_spec_from_config(
            SETUP, sampled, Algorithm.GLOBAL, relocation_period=123.0
        )
        assert spec.relocation_period == 123.0
