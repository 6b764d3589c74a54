"""NWS-style forecasting predictors."""

import math

import pytest

from repro.monitor.forecast import (
    AdaptiveForecaster,
    Ewma,
    LastValue,
    SlidingMean,
    SlidingMedian,
    default_bank,
)


class TestLastValue:
    def test_empty_predicts_none(self):
        assert LastValue().predict() is None

    def test_tracks_latest(self):
        p = LastValue()
        p.update(5.0)
        p.update(7.0)
        assert p.predict() == 7.0


class TestSlidingMean:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            SlidingMean(window=0)

    def test_mean_over_window(self):
        p = SlidingMean(window=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            p.update(v)
        assert p.predict() == pytest.approx(3.0)  # last three

    def test_empty_predicts_none(self):
        assert SlidingMean().predict() is None


class TestSlidingMedian:
    def test_odd_window(self):
        p = SlidingMedian(window=5)
        for v in (10.0, 1.0, 100.0):
            p.update(v)
        assert p.predict() == 10.0

    def test_even_count_averages_middle(self):
        p = SlidingMedian(window=4)
        for v in (1.0, 2.0, 3.0, 4.0):
            p.update(v)
        assert p.predict() == pytest.approx(2.5)

    def test_robust_to_spike(self):
        p = SlidingMedian(window=5)
        for v in (10.0, 10.0, 10.0, 10.0, 1e9):
            p.update(v)
        assert p.predict() == 10.0


class TestEwma:
    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)

    def test_first_value_initializes(self):
        p = Ewma(alpha=0.5)
        p.update(10.0)
        assert p.predict() == 10.0

    def test_blending(self):
        p = Ewma(alpha=0.5)
        p.update(10.0)
        p.update(20.0)
        assert p.predict() == pytest.approx(15.0)


class TestAdaptiveForecaster:
    def test_empty_predicts_none(self):
        assert AdaptiveForecaster().predict() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveForecaster().update(0.0)

    def test_constant_series_predicts_constant(self):
        f = AdaptiveForecaster()
        for _ in range(10):
            f.update(1000.0)
        assert f.predict() == pytest.approx(1000.0)

    def test_picks_mean_for_noisy_stationary_series(self):
        """On alternating noise around a level, window predictors beat
        last-value, and the adaptive forecast lands near the level."""
        f = AdaptiveForecaster()
        series = [100.0, 200.0] * 20
        for value in series:
            f.update(value)
        prediction = f.predict()
        assert 110.0 < prediction < 190.0

    def test_tracks_regime_change(self):
        """After a persistent shift, the forecast must follow."""
        f = AdaptiveForecaster()
        for _ in range(20):
            f.update(100.0)
        for _ in range(20):
            f.update(1000.0)
        assert f.predict() > 500.0

    def test_default_bank_composition(self):
        names = [p.name for p in default_bank()]
        assert "last" in names
        assert "mean" in names
        assert "median" in names
        assert "ewma" in names


class TestMonitoringIntegration:
    def test_forecast_mode_validation(self, env):
        from repro.monitor.system import MonitoringConfig, MonitoringSystem
        from repro.net.network import Network

        for mode in ("magic", "ewma", "mean"):
            with pytest.raises(ValueError):
                MonitoringSystem(Network(env), MonitoringConfig(forecast=mode))

    def test_estimate_uses_forecast(self, env):
        from repro.monitor.system import MonitoringConfig, MonitoringSystem
        from repro.net.host import Host
        from repro.net.link import Link
        from repro.net.network import Network
        from repro.traces import constant_trace

        net = Network(env)
        for name in ("a", "b"):
            net.add_host(Host(env, name))
        net.add_link(Link("a", "b", constant_trace(1000.0)))
        monitoring = MonitoringSystem(net, MonitoringConfig(forecast="median"))
        cache = monitoring.cache_for("a")
        cache.update("a", "b", 100.0, now=1.0)
        cache.update("a", "b", 300.0, now=2.0)
        estimate = monitoring.estimate("a", "a", "b", now=3.0)
        # Sliding-median forecast of [100, 300] = 200, not the raw last 300.
        assert estimate.bandwidth == pytest.approx(200.0)
