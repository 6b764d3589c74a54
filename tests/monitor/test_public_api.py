"""The forecasting classes are part of repro.monitor's public API."""

import repro.monitor as monitor
from repro.monitor import (
    AdaptiveForecaster,
    Ewma,
    LastValue,
    Predictor,
    SlidingMean,
    SlidingMedian,
    default_bank,
)


class TestForecastExports:
    def test_all_names_exported(self):
        for name in (
            "Predictor",
            "LastValue",
            "SlidingMean",
            "SlidingMedian",
            "Ewma",
            "AdaptiveForecaster",
            "default_bank",
        ):
            assert name in monitor.__all__
            assert getattr(monitor, name) is not None

    def test_exports_are_the_forecast_classes(self):
        from repro.monitor import forecast

        assert AdaptiveForecaster is forecast.AdaptiveForecaster
        assert Predictor is forecast.Predictor
        assert default_bank is forecast.default_bank

    def test_bank_members_are_predictors(self):
        bank = default_bank()
        assert bank, "default bank may not be empty"
        assert all(isinstance(p, Predictor) for p in bank)
        kinds = {type(p) for p in bank}
        assert {LastValue, SlidingMean, SlidingMedian, Ewma} <= kinds

    def test_forecaster_usable_through_public_api(self):
        forecaster = AdaptiveForecaster()
        for value in (10.0, 12.0, 11.0, 13.0):
            forecaster.update(value)
        prediction = forecaster.predict()
        assert prediction is not None and prediction > 0
        assert prediction in {p.predict() for p in forecaster.bank}
