"""Synthetic trace generator: determinism, calibration, structure."""

import numpy as np
import pytest

from repro.traces import SyntheticTraceModel, TraceGenParams
from repro.traces.stats import change_intervals, library_change_interval
from repro.traces.study import InternetStudy


def generate(seed=0, **kwargs):
    params = TraceGenParams(**kwargs) if kwargs else TraceGenParams()
    model = SyntheticTraceModel(params)
    return model.generate(
        base_rate=32 * 1024, rng=np.random.default_rng(seed), name="test"
    )


class TestGenerator:
    def test_deterministic_for_seed(self):
        a, b = generate(seed=42), generate(seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate(seed=1) != generate(seed=2)

    def test_rates_positive(self):
        trace = generate()
        assert (trace.rates > 0).all()

    def test_duration_and_sampling(self):
        trace = generate()
        params = TraceGenParams()
        assert trace.duration >= params.duration
        steps = np.diff(trace.times)
        assert np.allclose(steps, params.sample_period)

    def test_rejects_nonpositive_base_rate(self):
        model = SyntheticTraceModel()
        with pytest.raises(ValueError):
            model.generate(base_rate=0, rng=np.random.default_rng(0))

    def test_diurnal_cycle_present(self):
        # With jitter and episodes off, the trace is the pure diurnal
        # shape: afternoon local (14:00) must be the slow point.
        model = SyntheticTraceModel(
            TraceGenParams(
                ar_sigma=1e-9,
                episode_rate_per_hour=0.0,
                long_shifts_per_day=0.0,
                long_shift_sigma=0.0,
            )
        )
        trace = model.generate(
            base_rate=1000.0, rng=np.random.default_rng(0), tz_offset_hours=0.0
        )
        hours = (trace.times / 3600.0) % 24.0
        afternoon = trace.rates[(hours >= 13) & (hours <= 15)].mean()
        night = trace.rates[(hours >= 1) & (hours <= 4)].mean()
        assert afternoon < night

    def test_episodes_reduce_rate(self):
        quiet = SyntheticTraceModel(
            TraceGenParams(ar_sigma=1e-9, episode_rate_per_hour=0.0,
                           long_shifts_per_day=0.0, long_shift_sigma=0.0,
                           diurnal_depth=0.0)
        ).generate(base_rate=1000.0, rng=np.random.default_rng(3))
        busy = SyntheticTraceModel(
            TraceGenParams(ar_sigma=1e-9, episode_rate_per_hour=2.0,
                           long_shifts_per_day=0.0, long_shift_sigma=0.0,
                           diurnal_depth=0.0)
        ).generate(base_rate=1000.0, rng=np.random.default_rng(3))
        assert busy.rates.min() < quiet.rates.min()
        assert busy.mean_rate() < quiet.mean_rate()

    @pytest.mark.parametrize("rho", [0.75, 0.2, 0.999])
    @pytest.mark.parametrize("seed", [0, 7, 1998, 2024])
    def test_jitter_matches_indexed_recurrence(self, seed, rho):
        # With the diurnal cycle, episodes and level shifts off and a
        # power-of-two base rate (exact scaling, far above the trace's
        # rate floor), the rates are exactly base * exp(AR(1) log
        # jitter); the reference runs the recurrence element by element
        # in numpy.
        params = TraceGenParams(
            ar_rho=rho,
            diurnal_depth=0.0,
            episode_rate_per_hour=0.0,
            long_shifts_per_day=0.0,
            long_shift_sigma=0.0,
        )
        base = 2.0**20
        trace = SyntheticTraceModel(params).generate(
            base_rate=base, rng=np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed)
        n = trace.rates.size
        steady = params.ar_sigma / np.sqrt(max(1.0 - rho**2, 1e-9))
        log_jitter = np.empty(n)
        log_jitter[0] = rng.normal(0.0, steady)
        innovations = rng.normal(0.0, params.ar_sigma, size=n - 1)
        for k in range(1, n):
            log_jitter[k] = rho * log_jitter[k - 1] + innovations[k - 1]
        assert trace.rates.tobytes() == (base * np.exp(log_jitter)).tobytes()


class TestCalibration:
    def test_change_interval_near_two_minutes(self):
        """Paper §4: expected time between >=10% changes ~ 2 minutes."""
        library = InternetStudy(seed=7).run()
        interval = library_change_interval(library.all_traces())
        assert 80.0 <= interval <= 180.0

    def test_changes_actually_happen(self):
        trace = generate(seed=5)
        assert change_intervals(trace).size > 100
