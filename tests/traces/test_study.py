"""The synthetic Internet study and trace libraries."""

import numpy as np
import pytest

from repro.traces.study import (
    DEFAULT_HOSTS,
    InternetStudy,
    StudyHost,
    TraceLibrary,
    noon_segment,
    pair_key,
)
from repro.traces.trace import BandwidthTrace, constant_trace
from tests.oracles.library_draws import sample, sample_noon_segment


class TestPairKey:
    def test_canonical_order(self):
        assert pair_key("b", "a") == ("a", "b")
        assert pair_key("a", "b") == ("a", "b")

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            pair_key("a", "a")


class TestInternetStudy:
    def test_default_roster_covers_paper_regions(self):
        regions = {h.region for h in DEFAULT_HOSTS}
        assert {"us-east", "us-west", "us-midwest", "us-south", "eu", "br"} <= regions

    def test_complete_pair_coverage(self):
        library = InternetStudy(seed=1).run()
        n = len(DEFAULT_HOSTS)
        assert len(library) == n * (n - 1) // 2

    def test_deterministic_for_seed(self):
        a = InternetStudy(seed=9).run()
        b = InternetStudy(seed=9).run()
        assert a.trace("umd", "ucla") == b.trace("umd", "ucla")

    def test_seed_changes_traces(self):
        a = InternetStudy(seed=1).run()
        b = InternetStudy(seed=2).run()
        assert a.trace("umd", "ucla") != b.trace("umd", "ucla")

    def test_transatlantic_slower_than_domestic_on_average(self):
        library = InternetStudy(seed=3, pair_rate_sigma=0.0).run()
        domestic = library.trace("umd", "rutgers").mean_rate()
        transatlantic = library.trace("umd", "upm-es").mean_rate()
        assert transatlantic < domestic

    def test_requires_two_hosts(self):
        with pytest.raises(ValueError):
            InternetStudy(hosts=[StudyHost("solo", "us-east", -5.0)])

    def test_duplicate_names_rejected(self):
        hosts = [StudyHost("x", "us-east", -5.0), StudyHost("x", "eu", 1.0)]
        with pytest.raises(ValueError):
            InternetStudy(hosts=hosts)

    def test_unknown_region_pair_raises(self):
        hosts = [StudyHost("a", "mars", 0.0), StudyHost("b", "eu", 1.0)]
        with pytest.raises(KeyError):
            InternetStudy(hosts=hosts).run()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            InternetStudy(pair_rate_sigma=-0.1)


class TestTraceLibrary:
    def library(self):
        return InternetStudy(seed=4).run()

    def test_trace_lookup_symmetric(self):
        lib = self.library()
        assert lib.trace("umd", "ucla") is lib.trace("ucla", "umd")

    def test_unknown_pair_raises(self):
        with pytest.raises(KeyError):
            self.library().trace("umd", "nowhere")

    def test_sample_deterministic(self):
        lib = self.library()
        a = sample(lib, np.random.default_rng(5))
        b = sample(lib, np.random.default_rng(5))
        assert a is b

    def test_sample_noon_segment_starts_at_zero(self):
        lib = self.library()
        seg = sample_noon_segment(lib, np.random.default_rng(6))
        assert seg.start == 0.0
        assert seg.duration > 12 * 3600

    def test_rejects_traces_for_unknown_hosts(self):
        with pytest.raises(ValueError):
            TraceLibrary(
                DEFAULT_HOSTS[:2],
                {("nobody", "umd"): constant_trace(10)},
            )


class TestNoonSegment:
    def test_utc_noon(self):
        trace = BandwidthTrace(
            np.arange(0, 86400, 3600.0), np.arange(24.0) + 1.0
        )
        seg = noon_segment(trace, tz_offset_hours=0.0)
        assert seg.start == 0.0
        # First sample should carry the rate at 12:00 UTC (13.0).
        assert seg.rate_at(0) == 13.0

    def test_timezone_shifts_noon(self):
        trace = BandwidthTrace(
            np.arange(0, 86400, 3600.0), np.arange(24.0) + 1.0
        )
        # tz -5: local noon at 17:00 UTC.
        seg = noon_segment(trace, tz_offset_hours=-5.0)
        assert seg.rate_at(0) == 18.0


class TestSampleKeyCaching:
    """Sampling draws from a key tuple frozen at construction."""

    def test_sorted_keys_precomputed(self):
        library = TraceLibrary(
            DEFAULT_HOSTS[:3],
            {
                pair_key("umd", "rutgers"): constant_trace(10),
                pair_key("ucla", "umd"): constant_trace(20),
            },
        )
        assert library._sorted_keys == tuple(sorted(library._traces))
        assert list(library.pairs()) == list(library._sorted_keys)

    def test_sample_deterministic_for_seed(self):
        library = InternetStudy(seed=5).run()
        a = [sample(library, np.random.default_rng(3)).name for _ in range(5)]
        b = [sample(library, np.random.default_rng(3)).name for _ in range(5)]
        assert a == b

    def test_sample_immune_to_later_mutation(self):
        library = TraceLibrary(
            DEFAULT_HOSTS[:3],
            {
                pair_key("umd", "rutgers"): constant_trace(10),
                pair_key("ucla", "umd"): constant_trace(20),
            },
        )
        before = [sample(library, np.random.default_rng(9)).name for _ in range(8)]
        # A key sorting before the existing ones would previously have
        # shifted every subsequent draw; the frozen tuple keeps the
        # original draw order.
        library._traces[pair_key("rutgers", "ucla")] = constant_trace(30)
        after = [sample(library, np.random.default_rng(9)).name for _ in range(8)]
        assert before == after
