"""Vectorized/cached library sampling must replay the scalar draws exactly.

``sample_noon_segments`` batches the PCG64 index draws and
``noon_segment_for`` caches each pair's noon segment; both must be
indistinguishable (same rng stream consumption, same trace values) from
the scalar, build-per-draw reference in ``tests/oracles/library_draws.py``.
"""

import numpy as np

from repro.traces.study import InternetStudy, noon_segment
from tests.oracles.library_draws import sample_noon_segment


def _library():
    return InternetStudy(seed=77).run()


class TestBatchedDrawIdentity:
    def test_sample_noon_segments_matches_scalar_stream(self):
        library = _library()
        batched = library.sample_noon_segments(np.random.default_rng(9), 64)
        rng = np.random.default_rng(9)
        scalar = [sample_noon_segment(library, rng) for _ in range(64)]
        assert [id(t) for t in batched] == [id(t) for t in scalar]

    def test_generator_state_advances_identically(self):
        """After a batch of n draws the generator sits exactly where n
        scalar draws would leave it."""
        library = _library()
        rng_batch = np.random.default_rng(3)
        library.sample_noon_segments(rng_batch, 10)
        rng_scalar = np.random.default_rng(3)
        for _ in range(10):
            sample_noon_segment(library, rng_scalar)
        assert rng_batch.integers(1 << 30) == rng_scalar.integers(1 << 30)


class TestNoonSegmentCache:
    def test_cached_segment_matches_fresh_build(self):
        library = _library()
        for key in list(library.pairs())[:8]:
            cached = library.noon_segment_for(key)
            fresh = noon_segment(
                library.trace(*key), library.tz_offsets.get(key, 0.0)
            )
            assert np.array_equal(cached.times, fresh.times)
            assert np.array_equal(cached.rates, fresh.rates)

    def test_repeat_draws_share_one_object(self):
        library = _library()
        key = next(library.pairs())
        assert library.noon_segment_for(key) is library.noon_segment_for(key)

    def test_cached_segments_arrive_with_prefix_sums(self):
        library = _library()
        segment = library.noon_segment_for(next(library.pairs()))
        assert segment._cumbytes is not None

    def test_warm_noon_segments_covers_every_pair(self):
        library = _library()
        assert library.warm_noon_segments() is library
        assert set(library._noon_segments) == set(library.pairs())
        # Warming twice is a no-op (same objects).
        before = dict(library._noon_segments)
        library.warm_noon_segments()
        for key, segment in library._noon_segments.items():
            assert before[key] is segment
