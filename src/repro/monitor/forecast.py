"""NWS-style bandwidth forecasting.

The paper points at the Network Weather Service [19] for monitoring
support.  NWS's defining idea is that a *forecast* beats the raw last
measurement: it runs a bank of simple predictors over the measurement
history and, for each new prediction, uses whichever predictor has been
most accurate so far.

This module implements that scheme.  It is optional —
``MonitoringConfig(forecast="adaptive")`` routes every estimate through a
per-pair :class:`AdaptiveForecaster`, ``forecast="median"`` through a
per-pair :class:`SlidingMedian` — and compared against raw measurements
in ``benchmarks/test_extensions.py``; the paper's own model (raw cached
measurements) remains the default.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional


class Predictor:
    """Base class: one-step-ahead bandwidth prediction."""

    name = "base"

    def update(self, value: float) -> None:
        """Feed one measurement (called oldest-first)."""
        raise NotImplementedError

    def predict(self) -> Optional[float]:
        """Predicted next value, or None before any data."""
        raise NotImplementedError


class LastValue(Predictor):
    """Predict the most recent measurement (the paper's implicit model)."""

    name = "last"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = value

    def predict(self) -> Optional[float]:
        return self._last


class SlidingMean(Predictor):
    """Mean of the last ``window`` measurements."""

    name = "mean"

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self._values: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._values.append(value)

    def predict(self) -> Optional[float]:
        if not self._values:
            return None
        return sum(self._values) / len(self._values)


class SlidingMedian(Predictor):
    """Median of the last ``window`` measurements (robust to spikes)."""

    name = "median"

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window!r}")
        self._values: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._values.append(value)

    def predict(self) -> Optional[float]:
        if not self._values:
            return None
        ordered = sorted(self._values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0


class Ewma(Predictor):
    """Exponentially weighted moving average."""

    name = "ewma"

    def __init__(self, alpha: float = 0.4) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = value
        else:
            self._state = self.alpha * value + (1 - self.alpha) * self._state

    def predict(self) -> Optional[float]:
        return self._state


def default_bank() -> list[Predictor]:
    """The NWS-flavoured predictor bank."""
    return [
        LastValue(),
        SlidingMean(window=4),
        SlidingMean(window=16),
        SlidingMedian(window=8),
        Ewma(alpha=0.25),
        Ewma(alpha=0.6),
    ]


class AdaptiveForecaster:
    """Best-of-bank forecasting (the NWS scheme).

    Every incoming measurement first scores each predictor on how well it
    would have predicted that measurement (squared relative error on the
    log scale, which treats over- and under-estimation symmetrically for
    a quantity spanning orders of magnitude), then updates the bank.  A
    prediction comes from the predictor with the lowest accumulated,
    exponentially decayed error (each measurement keeps 0.9 of the old
    error).
    """

    def __init__(self) -> None:
        self.bank = default_bank()
        self._errors = [0.0] * len(self.bank)
        self._scored = [0] * len(self.bank)

    def update(self, value: float) -> None:
        """Score the bank against ``value``, then absorb it."""
        if value <= 0:
            raise ValueError(f"bandwidth must be positive, got {value!r}")
        log_value = math.log(value)
        for index, predictor in enumerate(self.bank):
            prediction = predictor.predict()
            if prediction is not None and prediction > 0:
                error = (math.log(prediction) - log_value) ** 2
                self._errors[index] = 0.9 * self._errors[index] + error
                self._scored[index] += 1
            predictor.update(value)

    def predict(self) -> Optional[float]:
        """The current best predictor's forecast (None before any data)."""
        best_index = None
        best_error = math.inf
        for index, predictor in enumerate(self.bank):
            if predictor.predict() is None:
                continue
            # Unscored predictors rank behind any scored one.
            error = self._errors[index] if self._scored[index] else math.inf
            if error < best_error or best_index is None:
                best_error = error
                best_index = index
        if best_index is None:
            return None
        return self.bank[best_index].predict()
