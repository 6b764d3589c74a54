"""Image workload and composition semantics."""

import numpy as np
import pytest

from repro.app.composition import CompositionSpec
from repro.app.images import (
    DEFAULT_MEAN_SIZE,
    MIN_IMAGE_BYTES,
    ImageWorkload,
    sample_image_sizes,
)


class TestSampleSizes:
    def test_distribution_roughly_matches_paper(self):
        rng = np.random.default_rng(0)
        sizes = sample_image_sizes(20000, rng)
        assert np.mean(sizes) == pytest.approx(DEFAULT_MEAN_SIZE, rel=0.02)
        assert np.std(sizes) == pytest.approx(DEFAULT_MEAN_SIZE * 0.25, rel=0.05)

    def test_truncation_floor(self):
        rng = np.random.default_rng(1)
        sizes = sample_image_sizes(10000, rng, mean_size=1000.0, rel_std=5.0)
        assert sizes.min() >= MIN_IMAGE_BYTES

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_image_sizes(-1, rng)
        with pytest.raises(ValueError):
            sample_image_sizes(1, rng, mean_size=0)
        with pytest.raises(ValueError):
            sample_image_sizes(1, rng, rel_std=-1)


class TestImageWorkload:
    def test_generation_shape(self):
        workload = ImageWorkload.generate(4, images_per_server=10, seed=7)
        assert workload.num_servers == 4
        assert workload.images_per_server == 10

    def test_deterministic(self):
        a = ImageWorkload.generate(3, images_per_server=5, seed=9)
        b = ImageWorkload.generate(3, images_per_server=5, seed=9)
        assert a.sizes == b.sizes
        assert a != ImageWorkload.generate(3, images_per_server=5, seed=10) or True

    def test_size_of(self):
        workload = ImageWorkload.generate(2, images_per_server=3, seed=1)
        assert workload.size_of(1, 2) == workload.sizes[1][2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageWorkload.generate(0)
        with pytest.raises(ValueError):
            ImageWorkload.generate(2, images_per_server=0)


class TestCompositionSpec:
    def test_paper_constants(self):
        spec = CompositionSpec()
        assert spec.seconds_per_pixel == pytest.approx(7e-6)
        assert spec.bytes_per_pixel == 1.0

    def test_output_size_is_max(self):
        spec = CompositionSpec()
        assert spec.output_size(100.0, 250.0) == 250.0
        assert spec.output_size(250.0, 100.0) == 250.0

    def test_compute_seconds(self):
        spec = CompositionSpec()
        # 128 KB image at 7 us/pixel, one byte per pixel.
        assert spec.compute_seconds(128 * 1024, 100) == pytest.approx(
            128 * 1024 * 7e-6
        )

    def test_seconds_per_byte(self):
        spec = CompositionSpec(seconds_per_pixel=8e-6, bytes_per_pixel=2.0)
        assert spec.seconds_per_byte == pytest.approx(4e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompositionSpec(seconds_per_pixel=-1)
        with pytest.raises(ValueError):
            CompositionSpec(bytes_per_pixel=0)
        with pytest.raises(ValueError):
            CompositionSpec().output_size(-1, 5)
